package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
)

// Keys are 16 bytes: "k" and a zero-padded decimal index, so key order is
// index order.
const keySize = 16

// valueHeader is the key (16 B) followed by the write sequence (8 B).
const valueHeader = keySize + 8

func makeKey(dst []byte, i uint64) []byte {
	dst = append(dst[:0], 'k')
	var num [20]byte
	s := strconv.AppendUint(num[:0], i, 10)
	for n := len(s); n < keySize-1; n++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// makeValue builds the value written by write number seq for key: the
// key, the sequence, then filler derived from seq. The first half of the
// filler is pseudo-random and the second half zeros, so the value
// compresses to about half its size.
func makeValue(dst []byte, key []byte, seq uint64, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	dst = dst[:size]
	copy(dst, key)
	binary.BigEndian.PutUint64(dst[keySize:], seq)
	body := dst[valueHeader:]
	half := len(body) / 2
	x := seq*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := 0; i < half; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(body[i:half], w[:])
	}
	clear(body[half:])
	return dst
}

// checkValue verifies that v is exactly what makeValue wrote for key at
// some sequence, and returns that sequence.
func checkValue(key, v []byte, size int, scratch []byte) (uint64, []byte, error) {
	if len(v) != size || len(v) < valueHeader {
		return 0, scratch, fmt.Errorf("key %s: value length %d, want %d", key, len(v), size)
	}
	if !bytes.Equal(v[:keySize], key) {
		return 0, scratch, fmt.Errorf("key %s: value embeds key %q", key, v[:keySize])
	}
	seq := binary.BigEndian.Uint64(v[keySize:])
	scratch = makeValue(scratch, key, seq, size)
	if !bytes.Equal(scratch, v) {
		return seq, scratch, fmt.Errorf("key %s: value for seq %d is corrupt", key, seq)
	}
	return seq, scratch, nil
}
