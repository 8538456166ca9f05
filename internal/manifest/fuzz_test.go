package manifest

import (
	"reflect"
	"testing"
)

// FuzzDecodeEdit feeds hostile manifest records to DecodeEdit. It must
// return an edit or an error and never panic, and an accepted edit must
// survive Encode: decoding its encoding yields the same edit.
func FuzzDecodeEdit(f *testing.F) {
	var e VersionEdit
	e.SetLogNum(7)
	e.SetNextFileNum(12)
	e.SetLastSeq(1 << 40)
	e.SetCompactPointer(2, []byte("key\x01\x00\x00\x00\x00\x00\x00\x00"))
	e.DeleteFile(1, 9)
	e.AddFile(0, &FileMetadata{Num: 10, Size: 4096, Smallest: []byte("a"), Largest: []byte("m"), RunID: 3})
	e.AddFile(3, &FileMetadata{Num: 11, Size: 8192, Smallest: []byte("n"), Largest: []byte("z")})
	f.Add(e.Encode())
	f.Add([]byte{})
	// Hostile seeds: a level past NumLevels, a key length past the record.
	f.Add([]byte{tagDeletedFile, NumLevels, 1})
	f.Add([]byte{tagCompactPointer, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 'k'})

	f.Fuzz(func(t *testing.T, record []byte) {
		got, err := DecodeEdit(record)
		if err != nil {
			return
		}
		again, err := DecodeEdit(got.Encode())
		if err != nil {
			t.Fatalf("re-encoded edit rejected: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("edit changed across Encode: %+v vs %+v", got, again)
		}
	})
}
