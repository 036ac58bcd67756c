package mem

import (
	"bytes"
	"testing"
)

const (
	allocBase = 0x8000_0000
	allocSize = 1 << 22
)

// The scalar accessors are the interpreter's per-instruction memory path;
// they must not allocate. AllocsPerRun pins the contract at exactly zero.

func TestScalarAccessorsZeroAllocs(t *testing.T) {
	m := NewPhysMemory(allocBase, allocSize)
	addr := uint64(allocBase + 0x1000)
	if err := m.WriteUint(addr, 0x0123_4567_89AB_CDEF, 8); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"ReadUint8", func() { _, _ = m.ReadUint(addr, 1) }},
		{"ReadUint16", func() { _, _ = m.ReadUint(addr, 2) }},
		{"ReadUint32", func() { _, _ = m.ReadUint32(addr) }},
		{"ReadUint64", func() { _, _ = m.ReadUint64(addr) }},
		{"ReadUint(8)", func() { _, _ = m.ReadUint(addr, 8) }},
		{"WriteUint8", func() { _ = m.WriteUint(addr, 0x5A, 1) }},
		{"WriteUint16", func() { _ = m.WriteUint(addr, 0x5A5A, 2) }},
		{"WriteUint32", func() { _ = m.WriteUint(addr, 0x5A5A_5A5A, 4) }},
		{"WriteUint64", func() { _ = m.WriteUint64(addr, 0x5A5A_5A5A_5A5A_5A5A) }},
		{"WriteUint(8)", func() { _ = m.WriteUint(addr, 42, 8) }},
		// Untouched pages read back as zero without allocating a frame.
		{"ReadUntouched", func() { _, _ = m.ReadUint64(allocBase + allocSize - 0x1000) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, n)
		}
	}
}

// Copy must move whole pages without staging the data through an
// intermediate buffer when source and destination do not overlap.
func TestCopyChunkedZeroAllocs(t *testing.T) {
	m := NewPhysMemory(allocBase, allocSize)
	src := uint64(allocBase + 0x10_000)
	dst := uint64(allocBase + 0x40_000)
	n := uint64(3*4096 + 123) // spans four pages, ragged tail
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	if err := m.Write(src, blob); err != nil {
		t.Fatal(err)
	}
	// Touch the destination pages first so steady-state copies are measured.
	if err := m.Copy(dst, src, n); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := m.Copy(dst, src, n); err != nil {
			panic(err)
		}
	}); a != 0 {
		t.Errorf("steady-state Copy: %.1f allocs/op, want 0", a)
	}
	got, err := m.Read(dst, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("chunked Copy corrupted data")
	}
}

// Misaligned copies crossing page boundaries at different source/dest
// phases must still be exact.
func TestCopyPagePhases(t *testing.T) {
	m := NewPhysMemory(allocBase, allocSize)
	blob := make([]byte, 3*4096)
	for i := range blob {
		blob[i] = byte(i * 13)
	}
	for _, srcOff := range []uint64{0, 1, 2047, 4095} {
		for _, dstOff := range []uint64{0, 3, 2048, 4093} {
			src := uint64(allocBase+0x100_000) + srcOff
			dst := uint64(allocBase+0x180_000) + dstOff
			if err := m.Write(src, blob); err != nil {
				t.Fatal(err)
			}
			if err := m.Copy(dst, src, uint64(len(blob))); err != nil {
				t.Fatal(err)
			}
			got, err := m.Read(dst, uint64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("copy src+%d -> dst+%d corrupted data", srcOff, dstOff)
			}
		}
	}
}

// Copying from an untouched (all-zero) region zero-fills the destination.
func TestCopyFromUntouchedZeroFills(t *testing.T) {
	m := NewPhysMemory(allocBase, allocSize)
	dst := uint64(allocBase + 0x200_000)
	if err := m.Write(dst, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(dst, allocBase+0x300_000, 4096); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(dst, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// Overlapping copies fall back to the staged path and behave like memmove.
func TestCopyOverlap(t *testing.T) {
	m := NewPhysMemory(allocBase, allocSize)
	base := uint64(allocBase + 0x280_000)
	blob := []byte("abcdefghijklmnopqrstuvwxyz")
	if err := m.Write(base, blob); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(base+4, base, uint64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(base+4, uint64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("overlapping Copy: got %q, want %q", got, blob)
	}
}

// watcherRec records code-page invalidation callbacks.
type watcherRec struct{ pages []uint64 }

func (w *watcherRec) InvalidateCodePage(pa uint64) { w.pages = append(w.pages, pa) }

// Every mutating entry point must notify code watchers for registered pages.
func TestCodeWatcherNotifications(t *testing.T) {
	page := uint64(allocBase + 0x8000)
	mutations := []struct {
		name string
		do   func(m *PhysMemory) error
	}{
		{"WriteUint", func(m *PhysMemory) error { return m.WriteUint(page+8, 1, 8) }},
		{"Write", func(m *PhysMemory) error { return m.Write(page+16, []byte{1}) }},
		{"Zero", func(m *PhysMemory) error { return m.Zero(page, 64) }},
		{"Copy", func(m *PhysMemory) error { return m.Copy(page, allocBase, 64) }},
		{"FlipBit", func(m *PhysMemory) error { return m.FlipBit(page+4, 3) }},
	}
	for _, mu := range mutations {
		m := NewPhysMemory(allocBase, allocSize)
		w := &watcherRec{}
		m.AddCodeWatcher(w)
		m.RegisterCodePage(page)
		if err := mu.do(m); err != nil {
			t.Fatalf("%s: %v", mu.name, err)
		}
		found := false
		for _, p := range w.pages {
			if p == page {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no invalidation for registered code page", mu.name)
		}
		// Writes elsewhere stay silent.
		w.pages = nil
		if err := m.WriteUint(allocBase+0x100, 1, 8); err != nil {
			t.Fatal(err)
		}
		if len(w.pages) != 0 {
			t.Errorf("%s: spurious invalidation %#x", mu.name, w.pages)
		}
	}
}
