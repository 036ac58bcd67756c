package hv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/virtio"
)

// windowCVM builds a CVM with a registered shared window on the stack.
func windowCVM(t testing.TB, k *Hypervisor, h *hart.Hart) *VM {
	t.Helper()
	vm, err := k.CreateCVM(h, "cvm", guestProgram(func(p *asm.Program) {}), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetupSharedWindow(h, vm); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestSharedPA(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	vm := windowCVM(t, k, h)
	first, err := k.MapShared(h, vm, sm.SharedBase)
	if err != nil {
		t.Fatal(err)
	}
	last, err := k.MapShared(h, vm, sm.SharedBase+sharedWindowSize-1)
	if err != nil {
		t.Fatal(err)
	}
	if first%isa.PageSize != 0 || last%isa.PageSize != 0 || first == last {
		t.Fatalf("MapShared returned %#x and %#x", first, last)
	}
	cases := []struct {
		name   string
		gpa    uint64
		wantPA uint64
		wantOK bool
	}{
		{"below window", sm.SharedBase - 1, 0, false},
		{"window base", sm.SharedBase, first, true},
		{"unaligned offset", sm.SharedBase + 0x123, first + 0x123, true},
		{"last byte", sm.SharedBase + sharedWindowSize - 1, last + isa.PageSize - 1, true},
		{"past window", sm.SharedBase + sharedWindowSize, 0, false},
		{"unmapped page", sm.SharedBase + 5*isa.PageSize, 0, false},
		{"unmapped slot", sm.SharedBase + 3<<21, 0, false},
	}
	for _, tc := range cases {
		pa, ok := vm.SharedPA(tc.gpa)
		if pa != tc.wantPA || ok != tc.wantOK {
			t.Errorf("%s: SharedPA(%#x) = %#x, %v; want %#x, %v", tc.name, tc.gpa, pa, ok, tc.wantPA, tc.wantOK)
		}
	}

	// Mapping an already mapped page returns the same PA and charges
	// nothing; a miss charges 3*Mem.
	before := h.Cycles
	again, err := k.MapShared(h, vm, sm.SharedBase+0x800)
	if err != nil || again != first {
		t.Fatalf("repeated MapShared = %#x, %v; want %#x", again, err, first)
	}
	if h.Cycles != before {
		t.Errorf("repeated MapShared charged %d cycles", h.Cycles-before)
	}
	if _, err := k.MapShared(h, vm, sm.SharedBase+5*isa.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := h.Cycles - before; got != 3*h.Cost.Mem {
		t.Errorf("MapShared miss charged %d cycles, want %d", got, 3*h.Cost.Mem)
	}

	// A CVM without a window resolves nothing.
	bare, err := k.CreateCVM(h, "bare", guestProgram(func(p *asm.Program) {}), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	if pa, ok := bare.SharedPA(sm.SharedBase); ok {
		t.Errorf("CVM without a window: SharedPA = %#x", pa)
	}
}

// TestSharedWindowConcurrent races MapShared writers against lock-free
// SharedPA readers and GuestMem copies on overlapping pages of one VM.
// Every caller must see one PA per page, the first copies into a page
// must agree on one cached host page (the RAM's own), and every copy
// must land. Run it under -race (make race, make race-engine).
func TestSharedWindowConcurrent(t *testing.T) {
	const workers, pages = 4, 1100 // pages span three 2 MiB slots
	m := platform.New(workers, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h0 := m.Harts[0]
	h0.Mode = isa.ModeS
	if err := k.RegisterSecurePool(h0, 16<<20); err != nil {
		t.Fatal(err)
	}
	vm := windowCVM(t, k, h0)

	var (
		mu   sync.Mutex
		seen = make(map[uint64]uint64) // page GPA -> PA
		wg   sync.WaitGroup
	)
	record := func(gpa, pa uint64) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[gpa]; ok && prev != pa {
			t.Errorf("page %#x resolved to %#x and %#x", gpa, prev, pa)
		}
		seen[gpa] = pa
	}
	for w := 0; w < workers; w++ {
		h := m.Harts[w]
		g := k.NewGuestMem(vm, h)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], uint64(w+1))
			for i := 0; i < pages; i++ {
				// Each worker walks the pages from a different start, so
				// every page is mapped by one worker while others read it.
				gpa := sm.SharedBase + uint64((i+w*pages/workers)%pages)*isa.PageSize
				if pa, ok := vm.SharedPA(gpa + 8); ok {
					record(gpa, pa-8)
				}
				pa, err := k.MapShared(h, vm, gpa)
				if err != nil {
					t.Error(err)
					return
				}
				record(gpa, pa)
				// Disjoint words per worker: the test races publication,
				// not the bytes of one word.
				if err := g.WriteBytes(gpa+64+uint64(w)*8, word[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != pages {
		t.Fatalf("%d pages resolved, want %d", len(seen), pages)
	}
	for gpa, pa := range seen {
		if got, ok := vm.SharedPA(gpa); !ok || got != pa {
			t.Errorf("after the race: SharedPA(%#x) = %#x, %v; want %#x", gpa, got, ok, pa)
		}
		if host := vm.shared.entry(gpa - sm.SharedBase).host.Load(); host == nil || &host[0] != &k.M.RAM.PageSlice(pa)[0] {
			t.Errorf("page %#x: cached host bytes are not RAM page %#x", gpa, pa)
		}
		for w := 0; w < workers; w++ {
			if v, _ := k.M.RAM.ReadUint64(pa + 64 + uint64(w)*8); v != uint64(w+1) {
				t.Errorf("page %#x: worker %d's copy reads back %d", gpa, w, v)
			}
		}
	}
}

// TestSharedWindowAllocs pins the device view's hot path at zero
// allocations: a SharedPA hit, a 16-byte GuestMem.ReadInto (one
// descriptor) on a mapped shared window, and 512-byte ReadInto and
// WriteBytes (one payload) through a page's cached host bytes.
func TestSharedWindowAllocs(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	vm := windowCVM(t, k, h)
	g := k.NewGuestMem(vm, h)
	gpa := sm.SharedBase + 0x40
	if _, err := k.MapShared(h, vm, gpa); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := vm.SharedPA(gpa); !ok {
			t.Fatal("shared page not mapped")
		}
	}); n != 0 {
		t.Errorf("SharedPA hit: %v allocs/op, want 0", n)
	}
	var buf [16]byte
	if n := testing.AllocsPerRun(100, func() {
		if err := g.ReadInto(gpa, buf[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("16-byte GuestMem.ReadInto: %v allocs/op, want 0", n)
	}
	if e := vm.shared.entry(gpa - sm.SharedBase); e.host.Load() == nil {
		t.Fatal("GuestMem.ReadInto did not cache the page's host bytes")
	}
	payload := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() {
		if err := g.WriteBytes(gpa, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("512-byte GuestMem.WriteBytes: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := g.ReadInto(gpa, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("512-byte GuestMem.ReadInto: %v allocs/op, want 0", n)
	}
}

func BenchmarkGuestMemReadInto(b *testing.B) {
	for _, size := range []int{16, 512} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			_, _, k, h := newStack(b, sm.Config{})
			vm := windowCVM(b, k, h)
			g := k.NewGuestMem(vm, h)
			gpa := sm.SharedBase + 0x100
			buf := make([]byte, size)
			if err := g.ReadInto(gpa, buf); err != nil { // maps the page
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.ReadInto(gpa, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGuestMemWriteBytes(b *testing.B) {
	for _, size := range []int{16, 512} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			_, _, k, h := newStack(b, sm.Config{})
			vm := windowCVM(b, k, h)
			g := k.NewGuestMem(vm, h)
			gpa := sm.SharedBase + 0x100
			buf := make([]byte, size)
			if err := g.WriteBytes(gpa, buf); err != nil { // maps the page
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.WriteBytes(gpa, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzVirtioChain runs Queue.PopBatch over a CVM's GuestMem with the
// descriptor table and avail ring written from fuzzer bytes: the hostile
// guest driver of the threat model. The pump must never panic, must fail
// only with a typed chain or out-of-window error, and every segment it
// hands a device must lie inside the shared window (a read of it then
// succeeds); the SM's invariants must hold afterwards.
func FuzzVirtioChain(f *testing.F) {
	const buf = sm.SharedBase + 0x3000
	desc := func(ds ...[4]uint64) []byte { // {addr, len, flags, next}
		var out []byte
		for _, d := range ds {
			out = binary.LittleEndian.AppendUint64(out, d[0])
			out = binary.LittleEndian.AppendUint32(out, uint32(d[1]))
			out = binary.LittleEndian.AppendUint16(out, uint16(d[2]))
			out = binary.LittleEndian.AppendUint16(out, uint16(d[3]))
		}
		return out
	}
	oneHead := []byte{0, 0, 1, 0, 0, 0} // flags 0, idx 1, ring[0] = head 0
	const next, write = 1, 2
	f.Add(uint8(8), desc( // header / payload / status
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x10, 512, next, 2},
		[4]uint64{buf + 0x210, 1, write, 0}), oneHead)
	f.Add(uint8(8), desc( // 0 -> 1 -> 0
		[4]uint64{buf, 16, next, 1},
		[4]uint64{buf + 0x10, 16, next, 0}), oneHead)
	f.Add(uint8(8), desc( // a private-window buffer address
		[4]uint64{GuestRAMBase, 16, 0, 0}), oneHead)

	f.Fuzz(func(t *testing.T, size uint8, descBytes, availBytes []byte) {
		_, monitor, k, h := newStack(t, sm.Config{})
		vm := windowCVM(t, k, h)
		g := k.NewGuestMem(vm, h)
		q := &virtio.Queue{
			Size:     uint16(size%16) + 1,
			DescGPA:  sm.SharedBase,
			AvailGPA: sm.SharedBase + 0x1000,
			UsedGPA:  sm.SharedBase + 0x2000,
			Ready:    true,
		}
		if n := int(q.Size) * 16; len(descBytes) > n {
			descBytes = descBytes[:n]
		}
		if n := 4 + int(q.Size)*2; len(availBytes) > n {
			availBytes = availBytes[:n]
		}
		if err := g.WriteBytes(q.DescGPA, descBytes); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteBytes(q.AvailGPA, availBytes); err != nil {
			t.Fatal(err)
		}

		chains, err := q.PopBatch(g, 0)
		var ce *virtio.ChainError
		var oe *virtio.OutOfWindowError
		if err != nil && !errors.As(err, &ce) && !errors.As(err, &oe) {
			t.Fatalf("PopBatch: untyped error %v", err)
		}
		var probe [64]byte
		check := func(head uint16, gpa uint64, n uint32) {
			if off := gpa - sm.SharedBase; gpa < sm.SharedBase || off >= sharedWindowSize || uint64(n) > sharedWindowSize-off {
				t.Fatalf("chain %d: segment [%#x, +%d) outside the shared window", head, gpa, n)
			}
			if err := g.ReadInto(gpa, probe[:min(int(n), len(probe))]); err != nil {
				t.Fatalf("chain %d: reading segment %#x: %v", head, gpa, err)
			}
		}
		for _, ch := range chains {
			for _, s := range ch.ReadGPA {
				check(ch.Head, s.GPA, s.Len)
			}
			for _, s := range ch.WriteGPA {
				check(ch.Head, s.GPA, s.Len)
			}
		}
		if found := monitor.Audit(); len(found) != 0 {
			t.Fatalf("audit: %v", found)
		}
	})
}
