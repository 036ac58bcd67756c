package main

import (
	"runtime/debug"
	"time"
)

// On a shared host, other tenants slow the cores down by up to 40% for
// seconds at a time. A speed probe taken just before each round measures
// how fast the host runs at that moment; the simulator's rate divided by
// the probe's moves far less than either (see README.md). The probe is
// the benchmark's own code, so a change to the simulator cannot change it.
// It mixes the three kinds of host work the simulator does, because no
// one of them alone tracked every workload: switch dispatch over a
// register file with loads and stores, calls through a table of closures,
// and small allocations with map updates.

// refSpeed is the probe's speed, in steps per second, on the reference
// host the end-to-end timings are scaled to: about what a 2-vCPU x86-64
// cloud VM gives when its neighbours are quiet.
const refSpeed = 1.3e8

// One probe takes about 13 ms at refSpeed.
const (
	probeSwitchSteps  = 1_000_000
	probeClosureSteps = 500_000
	probeAllocSteps   = 100_000
	probeSteps        = probeSwitchSteps + probeClosureSteps + probeAllocSteps
)

// probeSpeed runs one probe and returns its steps per host second. No
// garbage collection runs during the probe, so its speed does not depend
// on how much memory the simulator keeps live.
func probeSpeed() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	probeSink += probeSwitch(probeSwitchSteps) + probeClosures(probeClosureSteps) + probeAlloc(probeAllocSteps)
	return probeSteps / time.Since(t0).Seconds()
}

var (
	probeMem  [1 << 13]uint64 // 64 KiB
	probeProg = [...]uint8{0, 1, 2, 3, 4, 0, 2, 1, 3, 4, 5, 0}
	probeSink uint64 // keeps the compiler from dropping the loops
)

const probeMask = len(probeMem) - 1

func probeSwitch(n int) uint64 {
	var regs [32]uint64
	pc := 0
	for i := 0; i < n; i++ {
		a, b := i&31, (i*7)&31
		switch probeProg[pc] {
		case 0:
			regs[a] += regs[b] + uint64(i)
		case 1:
			regs[a] ^= regs[b] << 3
		case 2:
			probeMem[int(regs[b]>>3)&probeMask] = regs[a]
		case 3:
			regs[a] = probeMem[int(regs[a]>>5)&probeMask] + 1
		case 4:
			regs[a] = regs[a]*0x9e3779b97f4a7c15 + regs[b]
		case 5:
			if regs[a]&1 == 0 {
				regs[b]++
			}
		}
		if pc++; pc == len(probeProg) {
			pc = 0
		}
	}
	return regs[3] + regs[7]
}

// probeRegs is the state the closures of probeOps work on; i is the step.
type probeRegs struct {
	r [32]uint64
	i int
}

func (s *probeRegs) a() *uint64 { return &s.r[s.i&31] }
func (s *probeRegs) b() uint64  { return s.r[(s.i*7)&31] }

var probeOps = [...]func(s *probeRegs){
	func(s *probeRegs) { *s.a() += s.b() + uint64(s.i) },
	func(s *probeRegs) { *s.a() ^= s.b() << 3 },
	func(s *probeRegs) { probeMem[int(s.b()>>3)&probeMask] = *s.a() },
	func(s *probeRegs) { *s.a() = probeMem[int(*s.a()>>5)&probeMask] + 1 },
	func(s *probeRegs) { *s.a() = *s.a()*0x9e3779b97f4a7c15 + s.b() },
	func(s *probeRegs) {
		if *s.a()&1 == 0 {
			s.r[(s.i*7)&31]++
		}
	},
}

func probeClosures(n int) uint64 {
	s := &probeRegs{}
	pc := 0
	for s.i = 0; s.i < n; s.i++ {
		probeOps[probeProg[pc]](s)
		if pc++; pc == len(probeProg) {
			pc = 0
		}
	}
	return s.r[3]
}

type probeNode struct{ a, b, c uint64 }

func probeAlloc(n int) uint64 {
	ring := make([]*probeNode, 4096)
	m := map[uint64]uint64{}
	var x uint64
	for i := 0; i < n; i++ {
		nd := &probeNode{a: uint64(i), b: x, c: x ^ uint64(i)}
		ring[i&4095] = nd
		m[uint64(i)&1023] += nd.a
		x += m[uint64(i*7)&1023]
	}
	return x
}
