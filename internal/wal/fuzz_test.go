package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALReader feeds hostile logs to the record reader. Each input is
// read twice: as raw log bytes, and as a script of physical records
// framed with valid checksums, so mutations reach fragment reassembly
// (FIRST/MIDDLE/LAST sequencing, block padding) instead of stopping at
// the CRC check. Next must return records or errors and never panic, and
// no record can be longer than the log it came from.
func FuzzWALReader(f *testing.F) {
	for _, recs := range [][][]byte{
		{[]byte("a")},
		{[]byte("first"), bytes.Repeat([]byte("x"), 300), {}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, testCRC)
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	// Script seeds: FIRST "abc", MIDDLE "d", LAST ""; a LAST with no
	// FIRST; a fragment continued across a padded block boundary.
	f.Add([]byte{byte(typeFirst), 3, 'a', 'b', 'c', byte(typeMiddle), 1, 'd', byte(typeLast), 0})
	f.Add([]byte{byte(typeLast), 2, 'z', 'z', byte(typeFull), 1, 'q'})
	f.Add([]byte{byte(typeFirst), 3, 'a', 'b', 'c', 0x80, 5, byte(typeLast), 1, 'z'})

	f.Fuzz(func(t *testing.T, data []byte) {
		drainLog(t, data)
		drainLog(t, frameScript(data))
	})
}

// drainLog reads log until the first error, checking each record's size.
func drainLog(t *testing.T, log []byte) {
	r := NewReader(bytes.NewReader(log), testCRC)
	for {
		rec, err := r.Next()
		if err != nil {
			return
		}
		if len(rec) > len(log) {
			t.Fatalf("record of %d bytes from a %d-byte log", len(rec), len(log))
		}
	}
}

// frameScript turns script bytes into a log: each step is an op byte and
// a length byte. An op below 0x80 emits one checksummed physical record
// of type op%5 (so zero and unknown types appear too) carrying up to
// length payload bytes from the script. An op of 0x80 or more emits a
// zero-filled record — MIDDLE inside an open fragment, FULL otherwise —
// that leaves length%16 bytes in the block, so short scripts reach block
// boundaries and trailer padding. Like Writer, it zero-pads a block tail
// too short for a header and never lets a record cross a block.
func frameScript(script []byte) []byte {
	var out []byte
	open := false
	for len(script) >= 2 {
		op, n := script[0], int(script[1])
		script = script[2:]
		left := BlockSize - len(out)%BlockSize
		if left < headerSize {
			out = append(out, make([]byte, left)...)
			left = BlockSize
		}
		var t byte
		var payload []byte
		if op >= 0x80 {
			t = byte(typeFull)
			if open {
				t = byte(typeMiddle)
			}
			payload = make([]byte, max(left-headerSize-n%16, 0))
		} else {
			t = op % 5
			n = min(n, len(script), left-headerSize)
			payload, script = script[:n], script[n:]
		}
		switch recordType(t) {
		case typeFirst:
			open = true
		case typeFull, typeLast:
			open = false
		}
		var h [headerSize]byte
		binary.LittleEndian.PutUint32(h[0:4], testCRC(t, payload))
		binary.LittleEndian.PutUint16(h[4:6], uint16(len(payload)))
		h[6] = t
		out = append(append(out, h[:]...), payload...)
	}
	return out
}
