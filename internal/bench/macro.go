package bench

import (
	"fmt"

	"zion/internal/guest"
	"zion/internal/hv"
	"zion/internal/sm"
	"zion/internal/workloads"
)

// T1Row is one Table I line: a kernel's cycles in both VM kinds.
type T1Row struct {
	Name      string
	NormalVM  uint64
	CVM       uint64
	OverheadP float64
}

// T1Result reproduces Table I.
type T1Result struct {
	Rows    []T1Row
	Average float64
}

// Format renders the paper-style table.
func (r T1Result) Format() []string {
	out := []string{"Benchmark    Normal VM        Confidential VM (%)"}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%-12s %-16d %d (%+.2f)",
			row.Name, row.NormalVM, row.CVM, row.OverheadP))
	}
	out = append(out, fmt.Sprintf("Average      -                - %+.2f", r.Average))
	return out
}

// RunT1 runs the RV8 suite in both VM kinds. scaleDiv divides each
// kernel's default scale (tests pass >1 to stay fast; 1 = full runs).
func RunT1(scaleDiv int) (T1Result, error) {
	res := T1Result{}
	var sum float64
	for _, k := range workloads.RV8() {
		scale := k.DefaultScale / scaleDiv
		if scale < 8 {
			scale = 8
		}
		img := workloads.Program(k, scale)

		en := NewEnv(EnvConfig{HVQuantum: rv8TickQuantum()})
		nvm, err := en.HV.CreateNormalVM(k.Name, img, hv.GuestRAMBase)
		if err != nil {
			return res, err
		}
		_, ncycles, err := en.RunToCompletion(en.H, nvm)
		if err != nil {
			return res, fmt.Errorf("%s normal: %w", k.Name, err)
		}

		ec := NewEnv(EnvConfig{SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
		cvm, err := ec.HV.CreateCVM(ec.H, k.Name, img, hv.GuestRAMBase)
		if err != nil {
			return res, err
		}
		_, ccycles, err := ec.RunToCompletion(ec.H, cvm)
		if err != nil {
			return res, fmt.Errorf("%s cvm: %w", k.Name, err)
		}

		over := pct(float64(ncycles), float64(ccycles))
		res.Rows = append(res.Rows, T1Row{Name: k.Name, NormalVM: ncycles, CVM: ccycles, OverheadP: over})
		sum += over
	}
	res.Average = sum / float64(len(res.Rows))
	return res, nil
}

// E4Result reproduces the CoreMark comparison (§V.D).
type E4Result struct {
	NormalScore, CVMScore float64
	DropP                 float64
}

// Rows renders the comparison.
func (r E4Result) Rows() []string {
	return []string{
		fmt.Sprintf("CoreMark-like score, normal VM      : %8.1f", r.NormalScore),
		fmt.Sprintf("CoreMark-like score, confidential VM: %8.1f  (%+.2f%%)", r.CVMScore, r.DropP),
	}
}

// RunE4 runs the CoreMark-like kernel in both VM kinds; the score is
// iterations per hundred megacycles (scaled to land near the paper's
// numeric range).
func RunE4(scaleDiv int) (E4Result, error) {
	k := workloads.Coremark()
	scale := k.DefaultScale / scaleDiv
	if scale < 8 {
		scale = 8
	}
	img := workloads.Program(k, scale)

	en := NewEnv(EnvConfig{HVQuantum: rv8TickQuantum()})
	nvm, err := en.HV.CreateNormalVM("coremark", img, hv.GuestRAMBase)
	if err != nil {
		return E4Result{}, err
	}
	_, ncycles, err := en.RunToCompletion(en.H, nvm)
	if err != nil {
		return E4Result{}, err
	}

	ec := NewEnv(EnvConfig{SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
	cvm, err := ec.HV.CreateCVM(ec.H, "coremark", img, hv.GuestRAMBase)
	if err != nil {
		return E4Result{}, err
	}
	_, ccycles, err := ec.RunToCompletion(ec.H, cvm)
	if err != nil {
		return E4Result{}, err
	}
	score := func(cycles uint64) float64 {
		return float64(scale) / (float64(cycles) / 1e8) / 2.07
	}
	r := E4Result{NormalScore: score(ncycles), CVMScore: score(ccycles)}
	r.DropP = pct(r.NormalScore, r.CVMScore)
	return r, nil
}

// F3Row is one Redis operation's result.
type F3Row struct {
	Op          string
	NormalOPS   float64 // throughput, requests/s at 100 MHz
	CVMOPS      float64
	NormalLatMs float64 // latency, ms at 100 MHz
	CVMLatMs    float64
}

// F3Result reproduces Fig. 3.
type F3Result struct {
	Rows            []F3Row
	AvgTputDropP    float64
	AvgLatIncreaseP float64
}

// Format renders the figure as a table.
func (r F3Result) Format() []string {
	out := []string{"Op       normal ops/s  CVM ops/s  (tput %)   normal ms   CVM ms  (lat %)"}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%-8s %12.0f %10.0f  (%+5.1f)   %9.3f %8.3f  (%+5.1f)",
			row.Op, row.NormalOPS, row.CVMOPS, pct(row.NormalOPS, row.CVMOPS),
			row.NormalLatMs, row.CVMLatMs, pct(row.NormalLatMs, row.CVMLatMs)))
	}
	out = append(out, fmt.Sprintf("average: throughput %+0.1f%%, latency %+0.1f%%",
		r.AvgTputDropP, r.AvgLatIncreaseP))
	return out
}

// redisClient drives a VM's KV server: injects a request, pumps the VM
// until the response arrives, and returns per-request cycles.
type redisClient struct {
	e   *Env
	vm  *hv.VM
	net interface {
		Inject([]byte) error
	}
	resp []byte
	pump func() error
}

func (c *redisClient) do(op workloads.RedisOp, key, val uint64) (uint64, error) {
	c.resp = nil
	start := c.e.H.Cycles
	if err := c.net.Inject(workloads.EncodeRedisRequest(op, key, val)); err != nil {
		return 0, err
	}
	for c.resp == nil {
		if err := c.pump(); err != nil {
			return 0, err
		}
	}
	return c.e.H.Cycles - start, nil
}

// RunF3 benchmarks the Redis-like server in both VM kinds with `requests`
// operations per op type.
func RunF3(requests int) (F3Result, error) {
	ops := []struct {
		name string
		op   workloads.RedisOp
	}{
		{"SET", workloads.OpSET},
		{"GET", workloads.OpGET},
		{"INCR", workloads.OpINCR},
		{"LPUSH", workloads.OpLPUSH},
		{"SADD", workloads.OpSADD},
	}
	type stats struct{ tput, lat float64 }
	measure := func(confidential bool) (map[string]stats, error) {
		e := NewEnv(EnvConfig{})
		l := guest.LayoutFor(confidential)
		img := workloads.RedisServerProgram(l)
		var vm *hv.VM
		var err error
		if confidential {
			vm, err = e.HV.CreateCVM(e.H, "redis", img, hv.GuestRAMBase)
			if err == nil {
				err = e.HV.SetupSharedWindow(e.H, vm)
			}
		} else {
			vm, err = e.HV.CreateNormalVM("redis", img, hv.GuestRAMBase)
		}
		if err != nil {
			return nil, err
		}
		n := guest.SetupNet(e.HV, vm, e.H)
		cl := &redisClient{e: e, vm: vm, net: n}
		n.Tap = func(f []byte) { cl.resp = append([]byte(nil), f...) }
		cl.pump = func() error {
			_, err := e.HV.RunVCPU(e.H, vm, 0)
			return err
		}
		// Boot the server until it blocks awaiting the first request.
		if err := cl.pump(); err != nil {
			return nil, err
		}
		out := make(map[string]stats)
		for _, o := range ops {
			var total uint64
			for i := 0; i < requests; i++ {
				key := uint64(i%97 + 1)
				cyc, err := cl.do(o.op, key, uint64(i))
				if err != nil {
					return nil, fmt.Errorf("%s #%d: %w", o.name, i, err)
				}
				total += cyc
			}
			avg := float64(total) / float64(requests)
			out[o.name] = stats{tput: 1e8 / avg, lat: avg / 1e5}
		}
		return out, nil
	}

	normal, err := measure(false)
	if err != nil {
		return F3Result{}, fmt.Errorf("normal: %w", err)
	}
	conf, err := measure(true)
	if err != nil {
		return F3Result{}, fmt.Errorf("cvm: %w", err)
	}
	res := F3Result{}
	var tsum, lsum float64
	for _, o := range ops {
		n, c := normal[o.name], conf[o.name]
		res.Rows = append(res.Rows, F3Row{
			Op: o.name, NormalOPS: n.tput, CVMOPS: c.tput,
			NormalLatMs: n.lat, CVMLatMs: c.lat,
		})
		tsum += pct(n.tput, c.tput)
		lsum += pct(n.lat, c.lat)
	}
	res.AvgTputDropP = tsum / float64(len(ops))
	res.AvgLatIncreaseP = lsum / float64(len(ops))
	return res, nil
}

// F4Row is one IOZone sweep cell.
type F4Row struct {
	FileBytes, RecBytes uint64
	NormalMBs, CVMMBs   float64 // write+read aggregate throughput
	OverheadP           float64
}

// F4Result reproduces Fig. 4 at the 1:256 scale documented in the
// workloads package.
type F4Result struct {
	Rows []F4Row
}

// Format renders the sweep.
func (r F4Result) Format() []string {
	out := []string{"file(B)   rec(B)   normal MB/s   CVM MB/s   overhead%"}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%8d %7d %12.1f %10.1f %10.1f",
			row.FileBytes, row.RecBytes, row.NormalMBs, row.CVMMBs, -row.OverheadP))
	}
	return out
}

// RunF4 runs the IOZone sweep in both VM kinds.
func RunF4() (F4Result, error) {
	res := F4Result{}
	for _, prm := range workloads.IOZoneSweep() {
		run := func(confidential bool) (uint64, error) {
			e := NewEnv(EnvConfig{})
			l := guest.LayoutFor(confidential)
			img := workloads.IOZoneProgram(l, prm)
			var vm *hv.VM
			var err error
			if confidential {
				vm, err = e.HV.CreateCVM(e.H, "iozone", img, hv.GuestRAMBase)
				if err == nil {
					err = e.HV.SetupSharedWindow(e.H, vm)
				}
			} else {
				vm, err = e.HV.CreateNormalVM("iozone", img, hv.GuestRAMBase)
			}
			if err != nil {
				return 0, err
			}
			guest.SetupBlk(e.HV, vm, e.H, 8<<20)
			_, measured, err := e.RunToCompletion(e.H, vm)
			return measured, err
		}
		nc, err := run(false)
		if err != nil {
			return res, fmt.Errorf("normal %v: %w", prm, err)
		}
		cc, err := run(true)
		if err != nil {
			return res, fmt.Errorf("cvm %v: %w", prm, err)
		}
		// Write + read of the whole file = 2x bytes moved.
		mbs := func(cycles uint64) float64 {
			sec := float64(cycles) / 1e8
			return 2 * float64(prm.FileBytes) / (1 << 20) / sec
		}
		row := F4Row{FileBytes: prm.FileBytes, RecBytes: prm.RecBytes,
			NormalMBs: mbs(nc), CVMMBs: mbs(cc)}
		row.OverheadP = pct(row.NormalMBs, row.CVMMBs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
