package hart

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"zion/internal/asm"
	"zion/internal/mem"
)

// opTableHandlers parses ops.go and returns, for every opTable entry with a
// handler, the op's constant name (OpADDI) and the handler's name (opADDI).
func opTableHandlers(t *testing.T, fset *token.FileSet) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(fset, "ops.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "opTable" {
			return true
		}
		for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
			kv := elt.(*ast.KeyValueExpr)
			op := kv.Key.(*ast.SelectorExpr).Sel.Name
			for _, field := range kv.Value.(*ast.CompositeLit).Elts {
				if fkv := field.(*ast.KeyValueExpr); fkv.Key.(*ast.Ident).Name == "fn" {
					fn, ok := fkv.Value.(*ast.Ident)
					if !ok {
						t.Fatalf("opTable[%s].fn is not a named function", op)
					}
					handlers[op] = fn.Name
				}
			}
		}
		return false
	})
	if len(handlers) == 0 {
		t.Fatal("found no opTable handlers in ops.go")
	}
	return handlers
}

// runOpsSwitch parses trace.go and returns runOps' `switch in.Op` as the op
// constant name of each case mapped to the one function its body calls,
// plus whether the default case makes the table's indirect call oi.fn.
func runOpsSwitch(t *testing.T, fset *token.FileSet) (cases map[string]string, defaultCallsTable bool) {
	t.Helper()
	f, err := parser.ParseFile(fset, "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sw *ast.SwitchStmt
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "runOps" || fd.Recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			s, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if tag, ok := s.Tag.(*ast.SelectorExpr); ok && tag.Sel.Name == "Op" {
				if sw != nil {
					t.Fatal("runOps has more than one switch on the op")
				}
				sw = s
			}
			return true
		})
	}
	if sw == nil {
		t.Fatal("runOps has no switch on in.Op")
	}
	// calls returns the names of the functions a case body calls.
	calls := func(body []ast.Stmt) []string {
		var names []string
		for _, st := range body {
			ast.Inspect(st, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					switch fn := c.Fun.(type) {
					case *ast.Ident:
						names = append(names, fn.Name)
					case *ast.SelectorExpr:
						if x, ok := fn.X.(*ast.Ident); ok {
							names = append(names, x.Name+"."+fn.Sel.Name)
						}
					}
				}
				return true
			})
		}
		return names
	}
	cases = map[string]string{}
	for _, st := range sw.Body.List {
		cc := st.(*ast.CaseClause)
		called := calls(cc.Body)
		if cc.List == nil {
			defaultCallsTable = len(called) == 1 && called[0] == "oi.fn"
			continue
		}
		if len(cc.List) != 1 || len(called) != 1 {
			t.Fatalf("runOps case at %v: want one op and one call, got %d ops and calls %v",
				fset.Position(cc.Pos()), len(cc.List), called)
		}
		op := cc.List[0].(*ast.SelectorExpr).Sel.Name
		if _, dup := cases[op]; dup {
			t.Fatalf("runOps has two cases for %s", op)
		}
		cases[op] = called[0]
	}
	return cases, defaultCallsTable
}

// runOps dispatches every handler op through a switch of direct calls so
// the compiler inlines the handlers; execute() calls the same handlers
// through opTable. The two must name the same function for every op, and
// the switch must cover every op that has a handler: a handler op added
// to the table without a case would silently take the slower indirect call
// (and one with a wrong case would run different semantics on the
// compiled tier).
func TestPreboundDispatchCoversOpTable(t *testing.T) {
	fset := token.NewFileSet()
	table := opTableHandlers(t, fset)
	cases, defaultCallsTable := runOpsSwitch(t, fset)

	for op, fn := range table {
		got, ok := cases[op]
		switch {
		case !ok:
			t.Errorf("opTable[%s] has handler %s but runOps has no case for it", op, fn)
		case got != fn:
			t.Errorf("runOps case %s calls %s, opTable names %s", op, got, fn)
		}
	}
	for op, fn := range cases {
		if _, ok := table[op]; !ok {
			t.Errorf("runOps has a case for %s (calling %s), which has no opTable handler", op, fn)
		}
	}
	if !defaultCallsTable {
		t.Error("runOps' default case must make the table's indirect call oi.fn")
	}

	// The parse must describe the table the binary runs: the same number of
	// handler entries, naming the same functions.
	var live []string
	for i := range opTable {
		if fn := opTable[i].fn; fn != nil {
			name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
			live = append(live, name[strings.LastIndex(name, ".")+1:])
		}
	}
	var parsed []string
	for _, fn := range table {
		parsed = append(parsed, fn)
	}
	sort.Strings(live)
	sort.Strings(parsed)
	if !reflect.DeepEqual(live, parsed) {
		t.Errorf("opTable handlers at run time %v, parsed from ops.go %v", live, parsed)
	}
}

// A slot holds the instruction and its pre-bound op in 40 bytes: every
// hart keeps one 1024-slot array per decoded page, so a larger slot shows
// up directly in resident memory.
func TestTraceSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(traceOp{}); got != 40 {
		t.Fatalf("traceOp is %d bytes, want 40", got)
	}
}

// A hart's fastPath (34,288 bytes, most of it three micro-TLB arrays and
// two local dispatch-length histograms) is one heap object in Go's
// 40 KiB size class. Growing it past the class moves the
// span it lives in, and with it the heap placement the compiled loop's
// host throughput is sensitive to.
func TestFastPathSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(fastPath{}); got > 40<<10 {
		t.Fatalf("fastPath is %d bytes, past the 40 KiB size class", got)
	}
}

// BenchmarkRunOps times the pre-bound op loop on the trace tier: a hot
// loop of the TraceCompileCost mix (ADDI, LD, SD, MUL, XOR and a taken
// BNE back to the top), so every run of pre-bound ops is six ops long and
// ends in a side exit that chains to the loop head. It reports host
// nanoseconds per retired instruction; the loop must not allocate
// (TestTraceDispatchAllocs pins that).
func BenchmarkRunOps(b *testing.B) {
	benchRunOps(b, noTimer{})
}

// BenchmarkRunOpsArmed is BenchmarkRunOps under a deadline that never
// fires, so every block entry and every chain pays its horizon check.
func BenchmarkRunOpsArmed(b *testing.B) {
	benchRunOps(b, &fakeCLINT{mtimecmp: 1 << 62, armed: true})
}

func benchRunOps(b *testing.B, clk Clock) {
	h := New(0, mem.NewPhysMemory(ramBase, ramSize), nil)
	p := asm.New(ramBase)
	p.LIU(2, ramBase+dataOff)
	p.LI(5, 1)
	p.Label("top")
	p.ADDI(5, 5, 1)
	p.LD(6, 2, 16)
	p.SD(6, 2, 24)
	p.MUL(7, 5, 6)
	p.XOR(8, 7, 5)
	p.BNE(5, 0, "top")
	code, err := p.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Mem.Write(ramBase, code); err != nil {
		b.Fatal(err)
	}
	h.PC = ramBase

	const steps = 1 << 16
	h.Run(clk, steps) // decode the page, fill the micro-TLB entries
	if st := h.FastPathStats(); st.TCOps == 0 || st.Chains == 0 {
		b.Fatalf("trace tier or chaining not engaged: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, ev := h.Run(clk, steps); n != steps {
			b.Fatalf("run stopped after %d steps: %+v", n, ev)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/instr")
}
