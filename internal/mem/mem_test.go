package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"zion/internal/isa"
)

const (
	testBase = 0x8000_0000
	testSize = 16 << 20
)

func newTestRAM() *PhysMemory { return NewPhysMemory(testBase, testSize) }

func TestNewPhysMemoryAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned base")
		}
	}()
	NewPhysMemory(testBase+1, testSize)
}

func TestContains(t *testing.T) {
	m := newTestRAM()
	cases := []struct {
		addr, n uint64
		want    bool
	}{
		{testBase, 1, true},
		{testBase, testSize, true},
		{testBase + testSize - 1, 1, true},
		{testBase + testSize, 1, false},
		{testBase - 1, 1, false},
		{testBase + testSize - 4, 8, false},
		{0, 0, false},
		{^uint64(0) - 3, 8, false}, // overflow probe
	}
	for _, c := range cases {
		if got := m.Contains(c.addr, c.n); got != c.want {
			t.Errorf("Contains(%#x, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
}

func TestReadZeroFill(t *testing.T) {
	m := newTestRAM()
	b, err := m.Read(testBase+0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, make([]byte, 64)) {
		t.Error("untouched memory should read as zeros")
	}
	if m.TouchedPages() != 0 {
		t.Error("reads must not materialize pages")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newTestRAM()
	data := []byte("zion secure monitor")
	addr := uint64(testBase + 0x2FF0) // crosses a page boundary
	if err := m.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q want %q", got, data)
	}
	if m.TouchedPages() != 2 {
		t.Errorf("page-crossing write should touch 2 pages, touched %d", m.TouchedPages())
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := newTestRAM()
	if _, err := m.Read(testBase+testSize, 8); err == nil {
		t.Error("read past end should fail")
	}
	if err := m.Write(testBase-8, make([]byte, 8)); err == nil {
		t.Error("write before start should fail")
	}
	if err := m.Zero(testBase+testSize-4, 8); err == nil {
		t.Error("zero past end should fail")
	}
}

func TestUintAccessors(t *testing.T) {
	m := newTestRAM()
	addr := uint64(testBase + 0x100)
	for _, w := range []int{1, 2, 4, 8} {
		val := uint64(0xDEADBEEFCAFEF00D) & ((1 << (8 * uint(w))) - 1)
		if w == 8 {
			val = 0xDEADBEEFCAFEF00D
		}
		if err := m.WriteUint(addr, val, w); err != nil {
			t.Fatalf("WriteUint width %d: %v", w, err)
		}
		got, err := m.ReadUint(addr, w)
		if err != nil {
			t.Fatalf("ReadUint width %d: %v", w, err)
		}
		if got != val {
			t.Errorf("width %d: got %#x want %#x", w, got, val)
		}
	}
	if _, err := m.ReadUint(addr, 3); err == nil {
		t.Error("width 3 read should fail")
	}
	if err := m.WriteUint(addr, 0, 5); err == nil {
		t.Error("width 5 write should fail")
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := newTestRAM()
	if err := m.WriteUint64(testBase, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Read(testBase, 8)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if !bytes.Equal(b, want) {
		t.Errorf("layout = %v, want %v", b, want)
	}
}

func TestZero(t *testing.T) {
	m := newTestRAM()
	addr := uint64(testBase + 0x3000)
	if err := m.Write(addr, bytes.Repeat([]byte{0xFF}, 3*isa.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(addr+100, 2*isa.PageSize); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Read(addr+100, 2*isa.PageSize)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d not zeroed: %#x", i, v)
		}
	}
	// Bytes outside the zeroed window survive.
	if v, _ := m.ReadUint(addr+99, 1); v != 0xFF {
		t.Error("byte before zero window was clobbered")
	}
	end, _ := m.ReadUint(addr+100+2*isa.PageSize, 1)
	if end != 0xFF {
		t.Error("byte after zero window was clobbered")
	}

	// A window that spans an untouched page scrubs the backed pages on
	// either side and does not materialize the one in between.
	lo, hi := uint64(testBase+0x10000), uint64(testBase+0x12000)
	for _, a := range []uint64{lo, hi} {
		if err := m.Write(a, bytes.Repeat([]byte{0xAA}, isa.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	touched := m.TouchedPages()
	if err := m.Zero(lo+8, 3*isa.PageSize-16); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedPages(); got != touched {
		t.Errorf("Zero materialized pages: touched %d -> %d", touched, got)
	}
	b, _ = m.Read(lo+8, 3*isa.PageSize-16)
	if !bytes.Equal(b, make([]byte, len(b))) {
		t.Error("window across an untouched page not zeroed")
	}
	if v, _ := m.ReadUint(hi+isa.PageSize-8, 1); v != 0xAA {
		t.Error("byte after the spanning window was clobbered")
	}

	// Zero over a registered code page still notifies watchers.
	w := &watcherRec{}
	m.AddCodeWatcher(w)
	m.RegisterCodePage(hi)
	if err := m.Zero(hi, isa.PageSize); err != nil {
		t.Fatal(err)
	}
	if len(w.pages) != 1 || w.pages[0] != hi {
		t.Errorf("Zero over a code page notified %#x, want [%#x]", w.pages, hi)
	}
}

// ReadInto overwrites the whole destination, zero-filling the parts that
// fall on untouched pages even when the buffer holds stale bytes.
func TestReadIntoZeroFillsStale(t *testing.T) {
	m := newTestRAM()
	addr := uint64(testBase + 0x4000)
	if err := m.Write(addr, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	out := bytes.Repeat([]byte{0xEE}, 2*isa.PageSize)
	if err := m.ReadInto(addr, out); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(out))
	copy(want, []byte{1, 2, 3, 4})
	if !bytes.Equal(out, want) {
		t.Error("ReadInto left stale bytes over an untouched page")
	}
	if m.TouchedPages() != 1 {
		t.Errorf("ReadInto materialized pages: touched = %d, want 1", m.TouchedPages())
	}
}

// BenchmarkZeroPage times one 4 KiB scrub of a backed page, the SM's
// per-page cost at demand-page time and at destroy.
func BenchmarkZeroPage(b *testing.B) {
	m := newTestRAM()
	addr := uint64(testBase + 0x1000)
	if err := m.WriteUint(addr, 1, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(isa.PageSize)
	for i := 0; i < b.N; i++ {
		if err := m.Zero(addr, isa.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCopy(t *testing.T) {
	m := newTestRAM()
	src := uint64(testBase + 0x5000)
	dst := uint64(testBase + 0x9000)
	payload := []byte("bounce buffer payload spanning boundary")
	if err := m.Write(src, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.Copy(dst, src, uint64(len(payload))); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(dst, uint64(len(payload)))
	if !bytes.Equal(got, payload) {
		t.Error("copy did not preserve payload")
	}
	// Overlapping copy behaves like memmove.
	if err := m.Copy(src+4, src, uint64(len(payload))); err != nil {
		t.Fatal(err)
	}
	got, _ = m.Read(src+4, uint64(len(payload)))
	if !bytes.Equal(got, payload) {
		t.Error("overlapping copy corrupted payload")
	}
}

// Property: any in-range write followed by a read of the same span returns
// the written bytes, regardless of alignment or page crossings.
func TestWriteReadProperty(t *testing.T) {
	m := newTestRAM()
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := testBase + uint64(off)%(testSize-uint64(len(data)))
		if err := m.Write(addr, data); err != nil {
			return false
		}
		got, err := m.Read(addr, uint64(len(data)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The code-page registry is read without a lock while writers register
// and unregister pages and add and remove watchers. Every store to a page
// registered before the store must still reach the watcher, and
// IsCodePage must never report a page in the wrong state. Run under
// -race (make race), this also checks the lock-free reads are data-race
// free.
func TestCodePageRegistryConcurrent(t *testing.T) {
	const (
		writers = 3
		rounds  = 2000
	)
	m := newTestRAM()
	pinned := uint64(testBase + 0x1000) // registered for the whole test
	never := uint64(testBase + 0x2000)  // never registered
	own := func(g int) uint64 { return testBase + 0x10_000 + uint64(g)*isa.PageSize }
	churn := uint64(testBase + 0x40_000)
	pages := []uint64{pinned, churn}
	for g := 0; g < writers; g++ {
		pages = append(pages, own(g))
	}
	w := newCountingWatcher(pages...)
	m.AddCodeWatcher(w)
	m.RegisterCodePage(pinned)

	var writing, background sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan string, writers+1)
	// Each writer registers its own page, stores to it and to the pinned
	// page, and requires both stores to have reached the watcher.
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int, pa uint64) {
			defer writing.Done()
			for r := 0; r < rounds; r++ {
				m.RegisterCodePage(pa)
				before := w.n[pa].Load()
				if err := m.WriteUint(pa+8, uint64(r), 8); err != nil {
					errs <- err.Error()
					return
				}
				if w.n[pa].Load() == before {
					errs <- fmt.Sprintf("store %d to registered page %#x reached no watcher", r, pa)
					return
				}
				if !m.IsCodePage(pa) || !m.IsCodePage(pinned) {
					errs <- fmt.Sprintf("round %d: a registered page reads as free", r)
					return
				}
				// Disjoint words per writer: a shared word would be a
				// data race in the simulated DRAM itself.
				_ = m.WriteUint(pinned+uint64(g*128+r%128)*8, uint64(r), 8)
				m.UnregisterCodePage(pa)
			}
		}(g, own(g))
	}
	// Churn: another page flips state and a second watcher comes and goes
	// while the writers run.
	background.Add(2)
	go func() {
		defer background.Done()
		extra := newCountingWatcher()
		for !stop.Load() {
			m.RegisterCodePage(churn)
			m.AddCodeWatcher(extra)
			_ = m.WriteUint(churn, 1, 8)
			m.RemoveCodeWatcher(extra)
			m.UnregisterCodePage(churn)
		}
	}()
	// Reader: the fixed pages never change state.
	go func() {
		defer background.Done()
		for !stop.Load() {
			if !m.IsCodePage(pinned) || m.IsCodePage(never) {
				errs <- "pinned page read as free, or never-registered page as code"
				return
			}
			runtime.Gosched()
		}
	}()
	writing.Wait()
	stop.Store(true)
	background.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := w.n[pinned].Load(); got != writers*rounds {
		t.Errorf("pinned page: %d invalidations for %d stores", got, writers*rounds)
	}
}

// leaves counts the published directory leaves.
func (m *PhysMemory) leaves() int {
	n := 0
	for i := range m.dir {
		if m.dir[i].Load() != nil {
			n++
		}
	}
	return n
}

// Reads and Zero of untouched RAM observe zeros without publishing a
// leaf, so a scrub or a probe of memory nobody wrote costs nothing.
func TestUntouchedAccessCreatesNoLeaf(t *testing.T) {
	m := newTestRAM()
	addr := uint64(testBase + 3<<21 + 0x123)
	if _, err := m.Read(addr, 2*isa.PageSize); err != nil {
		t.Fatal(err)
	}
	buf := []byte{1, 2, 3, 4}
	if err := m.ReadInto(addr, buf); err != nil || !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatalf("ReadInto = %v, %v; want zeros", buf, err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		if v, err := m.ReadUint(addr, w); err != nil || v != 0 {
			t.Fatalf("ReadUint width %d = %#x, %v", w, v, err)
		}
	}
	if err := m.Zero(testBase, testSize); err != nil {
		t.Fatal(err)
	}
	if n := m.leaves(); n != 0 {
		t.Errorf("untouched reads and Zero published %d leaves", n)
	}
	if m.TouchedPages() != 0 {
		t.Errorf("untouched reads and Zero materialized %d pages", m.TouchedPages())
	}
	// One write publishes exactly the leaf of its span.
	if err := m.WriteUint(addr, 1, 8); err != nil {
		t.Fatal(err)
	}
	if n := m.leaves(); n != 1 || m.dir[3].Load() == nil {
		t.Errorf("after one write: %d leaves, leaf 3 published %v", n, m.dir[3].Load() != nil)
	}
}

// Goroutines first-touch pages inside one absent leaf at once, some on
// pages of their own and all on a few common ones. They must agree on one
// leaf and one backing page per index, and every page is counted once.
func TestFirstTouchOneLeafConcurrent(t *testing.T) {
	const (
		workers = 4
		own     = 8 // distinct pages per worker
		common  = 4 // pages every worker touches
	)
	m := newTestRAM()
	span := uint64(testBase + 5<<21)
	seenBy := make([][]*byte, workers) // worker -> first byte of each page it saw
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			start.Wait()
			var seen []*byte
			touch := func(i int) {
				addr := span + uint64(i)*isa.PageSize
				// Disjoint words per worker: the test races publication,
				// not the simulated DRAM bytes.
				if err := m.WriteUint(addr+uint64(w)*8, uint64(w+1), 8); err != nil {
					t.Error(err)
				}
				seen = append(seen, &m.PageSlice(addr)[0])
			}
			for i := 0; i < common; i++ {
				touch(i)
			}
			for i := 0; i < own; i++ {
				touch(common + w*own + i)
			}
			seenBy[w] = seen
		}(w)
	}
	start.Done()
	done.Wait()
	if n := m.leaves(); n != 1 {
		t.Fatalf("%d leaves published, want 1", n)
	}
	if want := common + workers*own; m.TouchedPages() != want {
		t.Errorf("TouchedPages = %d, want %d", m.TouchedPages(), want)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < common; i++ {
			if seenBy[w][i] != seenBy[0][i] {
				t.Errorf("worker %d saw another backing page for common page %d", w, i)
			}
		}
	}
	// Every worker's store survived on the page all agreed on.
	for i := 0; i < common; i++ {
		for w := 0; w < workers; w++ {
			addr := span + uint64(i)*isa.PageSize + uint64(w)*8
			if v, _ := m.ReadUint(addr, 8); v != uint64(w+1) {
				t.Errorf("common page %d word %d = %d, want %d", i, w, v, w+1)
			}
		}
	}
}

// IsZero reads untouched pages as zero without materializing them, and
// finds a single set bit anywhere in a range that spans pages.
func TestIsZero(t *testing.T) {
	m := newTestRAM()
	if z, err := m.IsZero(testBase, 3*isa.PageSize); err != nil || !z {
		t.Fatalf("untouched RAM: IsZero = %v, %v", z, err)
	}
	if n := m.TouchedPages(); n != 0 {
		t.Fatalf("IsZero materialized %d pages", n)
	}
	at := uint64(testBase + isa.PageSize + 4093)
	if err := m.FlipBit(at, 5); err != nil {
		t.Fatal(err)
	}
	if z, _ := m.IsZero(testBase+100, 2*isa.PageSize); z {
		t.Error("range holding a flipped bit reads zero")
	}
	if z, _ := m.IsZero(at+1, isa.PageSize); !z {
		t.Error("range past the flipped bit does not read zero")
	}
	if _, err := m.IsZero(testBase+testSize-8, 16); err == nil {
		t.Error("range escaping RAM accepted")
	}
}
