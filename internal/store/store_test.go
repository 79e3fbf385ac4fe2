package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"github.com/openstream/aftermath/internal/trace"
)

type fixedRec struct {
	A int64
	B int32
	C uint8
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{1, -2, 3, 1 << 60}
	recs := []fixedRec{{A: 7, B: -8, C: 9}, {A: -1, B: 2, C: 3}}
	r1 := Put(w, ints)
	r2 := Put(w, recs)
	r3 := Put(w, []int32{}) // empty section
	var enc Enc
	enc.Str("hello")
	enc.I64(-42)
	enc.U64(99)
	enc.Ref(r1)
	enc.Ref(r2)
	enc.Ref(r3)
	if err := w.Finish(enc.Bytes()); err != nil {
		t.Fatal(err)
	}

	if !Sniff(path) {
		t.Fatal("Sniff = false on a store file")
	}

	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	d := NewDec(m.Meta())
	if s := d.Str(); s != "hello" {
		t.Fatalf("Str = %q", s)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.U64(); v != 99 {
		t.Fatalf("U64 = %d", v)
	}
	g1, err := View[int64](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := View[fixedRec](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	g3, err := View[int32](m, d.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, ints) {
		t.Fatalf("ints = %v, want %v", g1, ints)
	}
	if !reflect.DeepEqual(g2, recs) {
		t.Fatalf("recs = %+v, want %+v", g2, recs)
	}
	if g3 != nil {
		t.Fatalf("empty section = %v, want nil", g3)
	}
}

func TestStoreRejectsCorruptInput(t *testing.T) {
	dir := t.TempDir()

	notStore := filepath.Join(dir, "plain.bin")
	if err := os.WriteFile(notStore, []byte("this is not a store file, just bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if Sniff(notStore) {
		t.Fatal("Sniff = true on a non-store file")
	}
	if _, err := Open(notStore); err == nil {
		t.Fatal("Open accepted a non-store file")
	}

	short := filepath.Join(dir, "short.atms")
	if err := os.WriteFile(short, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("Open accepted a header-less file")
	}

	// A valid file truncated mid-section must fail to open (the meta
	// ref points past EOF), not misparse.
	path := filepath.Join(dir, "trunc.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	Put(w, make([]int64, 1024))
	var enc Enc
	enc.Str("meta")
	if err := w.Finish(enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a truncated file")
	}

	// Corrupt section refs fail View, not crash.
	good := filepath.Join(dir, "good.atms")
	w, err = Create(good)
	if err != nil {
		t.Fatal(err)
	}
	ref := Put(w, []int64{1, 2, 3})
	var e2 Enc
	e2.Ref(ref)
	if err := w.Finish(e2.Bytes()); err != nil {
		t.Fatal(err)
	}
	m, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := View[int64](m, Ref{Off: 1 << 40, Bytes: 8}); err == nil {
		t.Fatal("View accepted an out-of-range ref")
	}
	if _, err := View[int64](m, Ref{Off: ref.Off, Bytes: ref.Bytes + 1}); err == nil {
		t.Fatal("View accepted a ref not divisible by the element size")
	}
}

func TestDecSticky(t *testing.T) {
	var enc Enc
	enc.U64(5)
	blob := enc.Bytes()
	d := NewDec(blob)
	if v := d.U64(); v != 5 {
		t.Fatalf("U64 = %d", v)
	}
	// Reading past the end sets a sticky error and returns zeros.
	if s := d.Str(); s != "" {
		t.Fatalf("Str past end = %q", s)
	}
	if d.Err() == nil {
		t.Fatal("no error after reading past the end")
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}
}

func TestWriterAbortLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aborted.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	Put(w, []int64{1})
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target exists after Abort (err=%v)", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("temp files left after Abort: %v", ents)
	}
}

// TestPutZeroesPadding: the padding bytes of a section's values are
// written as zeros even when the memory behind them holds garbage, so
// store files are byte-deterministic. MemRegion ends in 4 bytes of
// padding after its int32 Node; 5000 values span several of Put's copy
// chunks.
func TestPutZeroesPadding(t *testing.T) {
	var probe trace.MemRegion
	size := int(unsafe.Sizeof(probe))
	if end := unsafe.Offsetof(probe.Node) + unsafe.Sizeof(probe.Node); end != 28 || size != 32 {
		t.Fatalf("MemRegion: size %d, fields end at %d; the test assumes 32 bytes with padding at 28-31", size, end)
	}
	regions := make([]trace.MemRegion, 5000)
	for i := range regions {
		regions[i] = trace.MemRegion{ID: trace.RegionID(i), Addr: uint64(i) << 12, Size: 4096, Node: int32(i % 4)}
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&regions[0])), size*len(regions))
	for i := range regions {
		copy(raw[i*size+28:i*size+32], []byte{0xde, 0xad, 0xbe, 0xef})
	}

	path := filepath.Join(t.TempDir(), "pad.atms")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := Put(w, regions)
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := data[ref.Off : ref.Off+ref.Bytes]
	for i := range regions {
		v := sec[i*size : (i+1)*size]
		if pad := v[28:32]; !bytes.Equal(pad, make([]byte, 4)) {
			t.Fatalf("region %d: padding written as % x, want zeros", i, pad)
		}
		if !bytes.Equal(v[:28], raw[i*size:i*size+28]) {
			t.Fatalf("region %d: field bytes changed", i)
		}
	}
	if pad := raw[28:32]; !bytes.Equal(pad, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatal("Put modified the caller's values")
	}
}

// TestPaddingOf: padding is found inside nested structs and array
// elements, not only between top-level fields.
func TestPaddingOf(t *testing.T) {
	type pair struct {
		X uint8
		Y uint16
	}
	type nested struct {
		A uint8
		B [2]pair
		C int64
	}
	// mask spells a mask with f for a field byte and _ for padding.
	mask := func(s string) []byte {
		m := make([]byte, len(s))
		for i := range s {
			if s[i] == 'f' {
				m[i] = 0xff
			}
		}
		return m
	}
	for _, c := range []struct {
		t    reflect.Type
		want padding
	}{
		{reflect.TypeOf(int64(0)), padding{}},
		{reflect.TypeOf(fixedRec{}), padding{13, mask("___")}},
		{reflect.TypeOf(nested{}), padding{1, mask("_f_fff_ff______")}},
	} {
		if got := paddingOf(c.t); !reflect.DeepEqual(got, c.want) {
			t.Errorf("paddingOf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}
