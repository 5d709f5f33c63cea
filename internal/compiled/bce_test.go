package compiled_test

import (
	"testing"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/wasm"
	g "leapsandbounds/internal/wasmgen"
	"leapsandbounds/internal/workloads"
)

// The tests in this file pin that each elision mechanism actually
// fires on the IR shape it was built for, via deltas of the process-
// wide compiled.Stats() counters. Concurrent compiles from parallel
// tests can only inflate the deltas, so the >0 assertions stay sound
// without test isolation.

// runAllStrategies executes run() under every strategy and requires
// one agreed result (the kernels here make no OOB access).
func runAllStrategies(t *testing.T, cm core.CompiledModule) uint64 {
	t.Helper()
	var want uint64
	for i, s := range mem.Strategies() {
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: s}, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, err := inst.Invoke("run")
		inst.Close()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			want = res[0]
		} else if res[0] != want {
			t.Errorf("%v: result %#x, want %#x", s, res[0], want)
		}
	}
	return want
}

// TestHoistLoopInvariantChecks compiles a gemm-shaped kernel — three
// nested counted loops whose accesses are affine in the induction
// variables — and requires the loop-versioning hoist to fire, then
// checks all five strategies agree on the result.
func TestHoistLoopInvariantChecks(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(4, 16)
	lay := g.NewLayout(0)
	const n = 24
	A := lay.F64(n * n)
	B := lay.F64(n * n)
	C := lay.F64(n * n)
	f := mb.Func("run", wasm.F64)
	i := f.LocalI32("i")
	j := f.LocalI32("j")
	k := f.LocalI32("k")
	acc := f.LocalF64("acc")
	idx := func(r, c g.Expr) g.Expr { return g.Add(g.Mul(r, g.I32(n)), c) }
	f.Body(
		g.For(i, g.I32(0), g.I32(n),
			g.For(j, g.I32(0), g.I32(n),
				g.Set(acc, g.F64(0)),
				g.For(k, g.I32(0), g.I32(n),
					g.Set(acc, g.Add(g.Get(acc), g.Mul(
						A.Load(idx(g.Get(i), g.Get(k))),
						B.Load(idx(g.Get(k), g.Get(j))),
					))),
				),
				C.Store(idx(g.Get(i), g.Get(j)), g.Get(acc)),
			),
		),
		g.Return(C.Load(g.I32(5))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	if after.Hoisted == before.Hoisted {
		t.Errorf("no hoisted checks on a gemm-shaped kernel")
	}
	if after.ChecksElided == before.ChecksElided {
		t.Errorf("no elided accesses on a gemm-shaped kernel")
	}
	runAllStrategies(t, cm)
}

// TestCoalesceEBBChecks compiles straight-line same-base traffic
// (two loads + two stores within one extended basic block) and
// requires the group to collapse onto one range check.
func TestCoalesceEBBChecks(t *testing.T) {
	mb := g.NewModule()
	mb.Memory(1, 4)
	f := mb.Func("run", wasm.I64)
	a := f.LocalI64("a")
	b := f.LocalI64("b")
	arr := g.NewLayout(0).I64(64)
	f.Body(
		g.Set(a, arr.Load(g.I32(2))),
		g.Set(b, arr.Load(g.I32(3))),
		arr.Store(g.I32(2), g.Get(b)),
		arr.Store(g.I32(3), g.Get(a)),
		g.Return(g.Add(g.Get(a), g.Get(b))),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	if after.RangesCoalesced == before.RangesCoalesced {
		t.Errorf("no coalesced ranges on straight-line same-base traffic")
	}
	runAllStrategies(t, cm)
}

// TestGemmElisionStats compiles the real gemm workload and requires
// the full pipeline to engage on it: checks elided, and address-mode
// chains fused into the unchecked accesses (the closure-level analog
// of folding the scale/index/base arithmetic into the memory
// operand). It then runs the kernel under the trap strategy, the
// configuration whose headline win BENCH_bce.json records.
func TestGemmElisionStats(t *testing.T) {
	wl, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	module, _ := wl.Build(workloads.Test)
	before := compiled.Stats()
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	cm, err := eng.CompileModule(module)
	if err != nil {
		t.Fatal(err)
	}
	after := compiled.Stats()
	t.Logf("gemm delta: emitted=%d elided=%d coalesced=%d hoisted=%d fused=%d",
		after.ChecksEmitted-before.ChecksEmitted,
		after.ChecksElided-before.ChecksElided,
		after.RangesCoalesced-before.RangesCoalesced,
		after.Hoisted-before.Hoisted,
		after.AddrFused-before.AddrFused)
	if after.ChecksElided == before.ChecksElided {
		t.Errorf("no elided checks on gemm")
	}
	if after.Hoisted == before.Hoisted {
		t.Errorf("no hoisted checks on gemm")
	}
	if after.AddrFused == before.AddrFused {
		t.Errorf("no fused address chains on gemm")
	}
	inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Trap}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Invoke("run"); err != nil {
		t.Fatal(err)
	}
}

// TestElideClampMatchesTrap pins that clamp and trap differ in code
// exactly where the paper says they differ: the sequence run at each
// surviving check. Elision proves the same facts under both, so wavm
// must execute the same number of operations in every class outside
// the check classes, and clamp's check count must equal trap's.
func TestElideClampMatchesTrap(t *testing.T) {
	for _, name := range []string{"gemm", "jacobi-2d", "atax"} {
		wl, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		hist := func(s mem.Strategy) *isa.Counts {
			c, err := harness.OpHistogram(harness.EngineWAVM, wl, workloads.Test, s, isa.X86_64())
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			return c
		}
		clamp, trp := hist(mem.Clamp), hist(mem.Trap)
		t.Logf("%s: clamp %d ops (%d checks), trap %d ops (%d checks)", name,
			clamp.Total(), clamp[isa.ClassCheckClamp], trp.Total(), trp[isa.ClassCheckTrap])
		for c := isa.OpClass(0); c < isa.NumClasses; c++ {
			if c == isa.ClassCheckClamp || c == isa.ClassCheckTrap {
				continue
			}
			if clamp[c] != trp[c] {
				t.Errorf("%s: %v ops: clamp %d, trap %d", name, c, clamp[c], trp[c])
			}
		}
		if clamp[isa.ClassCheckClamp] != trp[isa.ClassCheckTrap] {
			t.Errorf("%s: checks: clamp %d, trap %d",
				name, clamp[isa.ClassCheckClamp], trp[isa.ClassCheckTrap])
		}
	}
}

// TestDifferentialElideClampTail runs a counted loop whose last
// iterations cross the end of memory, then an in-bounds sweep of the
// whole memory. Under clamp the first loop's guard fails and the
// checked copy redirects each out-of-bounds access to size-8; the
// second loop's guard passes and runs unchecked. Elision on and off
// must agree under every strategy, clamp's digest must be the one
// the redirect rule gives, and elision must actually remove checks
// under clamp.
func TestDifferentialElideClampTail(t *testing.T) {
	const (
		size  = 65536
		elems = size / 8
		lo    = elems - 192
		hi    = elems + 8
	)
	mb := g.NewModule()
	mb.Memory(1, 4)
	arr := g.NewLayout(0).I64(elems)
	f := mb.Func("run", wasm.I64)
	i := f.LocalI32("i")
	acc := f.LocalI64("acc")
	f.Body(
		g.For(i, g.I32(lo), g.I32(hi),
			g.Set(acc, g.Add(g.Mul(g.Get(acc), g.I64(31)), g.Add(arr.Load(g.Get(i)), g.I64(1)))),
			arr.Store(g.Get(i), g.Get(acc)),
		),
		g.For(i, g.I32(0), g.I32(elems),
			g.Set(acc, g.Add(g.Mul(g.Get(acc), g.I64(31)), arr.Load(g.Get(i)))),
		),
		g.Return(g.Get(acc)),
	)
	mb.Export("run", f)
	m, err := mb.Module()
	if err != nil {
		t.Fatal(err)
	}

	// The redirect rule TestClampRedirectSemantics pins: an
	// out-of-bounds 8-byte access lands on size-8.
	var cells [elems]uint64
	var want uint64
	for k := lo; k < hi; k++ {
		at := min(k, elems-1)
		want = want*31 + cells[at] + 1
		cells[at] = want
	}
	for k := range cells {
		want = want*31 + cells[k]
	}

	checkElideEquivalence(t, m)
	checks := map[bool]int64{}
	for _, elide := range []bool{false, true} {
		eng := compiled.NewWAVM()
		eng.SetCache(nil)
		eng.SetCodegen(core.Codegen{BoundsElision: elide, RegisterIR: true})
		cm, err := eng.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := cm.Instantiate(core.Config{Profile: isa.X86_64(), Strategy: mem.Clamp, CountCycles: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Invoke("run")
		if err != nil {
			t.Fatalf("elide=%v: clamp must not trap: %v", elide, err)
		}
		checks[elide] = inst.Counts()[isa.ClassCheckClamp]
		inst.Close()
		if res[0] != want {
			t.Errorf("elide=%v: clamp digest %#x, want redirect result %#x", elide, res[0], want)
		}
	}
	t.Logf("clamp checks: elide=off %d, elide=on %d", checks[false], checks[true])
	if checks[true] >= checks[false] {
		t.Errorf("clamp checks: elide=on %d, elide=off %d; elision removed none", checks[true], checks[false])
	}
}
