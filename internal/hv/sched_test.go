package hv

import (
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/platform"
	"zion/internal/sm"
)

// spinImage busy-loops for `iters` decrements and reports `result`.
func spinImage(iters, result int64) []byte {
	p := asm.New(GuestRAMBase)
	p.LI(asm.T1, iters)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.LI(asm.A0, result)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

func TestSchedulerMixedVMs(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{SchedQuantum: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	k.SchedQuantum = 15_000
	h := m.Harts[0]
	h.Mode = 1
	if err := k.RegisterSecurePool(h, 16<<20); err != nil {
		t.Fatal(err)
	}

	sched := k.NewScheduler()
	// Two confidential, one normal, different lengths.
	cvm1, err := k.CreateCVM(h, "c1", spinImage(80_000, 101), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	cvm2, err := k.CreateCVM(h, "c2", spinImage(40_000, 102), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := k.CreateNormalVM("n1", spinImage(60_000, 103), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched.Add(cvm1, 0)
	sched.Add(cvm2, 0)
	sched.Add(nvm, 0)

	results, err := sched.RunAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	want := []uint64{101, 102, 103}
	for i, r := range results {
		if r.Data != want[i] {
			t.Errorf("vm %d result = %d, want %d", i, r.Data, want[i])
		}
		if r.Rounds < 2 {
			t.Errorf("vm %d rounds = %d; timeslicing did not interleave", i, r.Rounds)
		}
	}
	// The shorter CVM must have finished in fewer rounds than the longer.
	if results[1].Rounds >= results[0].Rounds {
		t.Errorf("c2 (%d rounds) should finish before c1 (%d rounds)",
			results[1].Rounds, results[0].Rounds)
	}
}

func TestSchedulerSingleVM(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h := m.Harts[0]
	h.Mode = 1
	if err := k.RegisterSecurePool(h, 8<<20); err != nil {
		t.Fatal(err)
	}
	vm, err := k.CreateCVM(h, "solo", spinImage(100, 7), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched := k.NewScheduler()
	sched.Add(vm, 0)
	results, err := sched.RunAll(h)
	if err != nil || len(results) != 1 || results[0].Data != 7 {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestSchedulerEmpty(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	sched := k.NewScheduler()
	results, err := sched.RunAll(m.Harts[0])
	if err != nil || len(results) != 0 {
		t.Fatalf("empty queue: %v %v", results, err)
	}
}

// A normal VM's guest bug (a load from an unmapped GPA below guest RAM)
// retires that VM with VMResult.Err; a co-resident CVM still runs to
// shutdown. Only platform-fatal SM errors abort the fleet.
func TestSchedulerRetiresFaultingNormalVM(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{SchedQuantum: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	k.SchedQuantum = 15_000
	h := m.Harts[0]
	h.Mode = 1
	if err := k.RegisterSecurePool(h, 8<<20); err != nil {
		t.Fatal(err)
	}
	p := asm.New(GuestRAMBase)
	p.LI(asm.T0, 0x2000)
	p.LD(asm.T1, asm.T0, 0)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	bad, err := k.CreateNormalVM("bad", p.MustAssemble(), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	cvm, err := k.CreateCVM(h, "good", spinImage(40_000, 55), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched := k.NewScheduler()
	sched.Add(bad, 0)
	sched.Add(cvm, 0)
	results, err := sched.RunAll(h)
	if err != nil {
		t.Fatalf("RunAll aborted the fleet: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "unmapped GPA 0x2000") {
		t.Errorf("normal VM err = %v, want its unmapped-GPA fault", results[0].Err)
	}
	if results[1].Err != nil || results[1].Data != 55 {
		t.Errorf("CVM result = %d, err %v; want 55, nil", results[1].Data, results[1].Err)
	}
}
