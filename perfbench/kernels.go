package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// The kernels workload is the paper's steady-state execution: a closed
// loop with one client rotating over program × engine × strategy
// cells, a fresh isolate per invoke. kvstore adds the WASI crossing.
var (
	kernelPrograms = []string{"gemm", "jacobi-2d", "505.mcf", "557.xz", "kvstore"}
	kernelEngines  = []string{harness.EngineWAVM, harness.EngineV8, harness.EngineWasm3}
)

// engineLayer names the module that executes an engine's code.
var engineLayer = map[string]string{
	harness.EngineWAVM:  "compiled",
	harness.EngineV8:    "tiered",
	harness.EngineWasm3: "interp",
}

// program is one workload module with its reference checksum.
type program struct {
	spec workloads.Spec
	want uint64
}

// loadPrograms builds the named modules and runs their native twins
// for the expected checksums (cfg.corrupt flips one, for the tests).
func loadPrograms(names []string, cfg runConfig) ([]program, error) {
	var out []program
	for _, n := range names {
		spec, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		_, native, err := spec.BuildChecked(cfg.class)
		if err != nil {
			return nil, err
		}
		p := program{spec: spec, want: native()}
		if n == cfg.corrupt {
			p.want ^= 1
		}
		out = append(out, p)
	}
	return out, nil
}

// kcell is one program × engine × strategy configuration.
type kcell struct {
	prog     program
	engine   string
	strategy mem.Strategy
	cm       core.CompiledModule
	// ns samples, split by whether the op was traced.
	exec, ready [2][]float64
	// execMs holds every sample in ms, traced or not.
	execMs []float64
}

// pooled joins a cell's traced and untraced samples.
func pooled(xs [2][]float64) []float64 {
	return append(append([]float64(nil), xs[0]...), xs[1]...)
}

// kernelSetup is one set-up: engines, compiled modules, cells.
type kernelSetup struct {
	cells   []*kcell
	closers []func()
	readyMs []float64 // tiered.WaitReady per v8 module
}

func (s *kernelSetup) close() {
	for _, c := range s.closers {
		c()
	}
}

// setupKernels builds every program, compiles it on every engine with
// the module cache detached (so each set-up does the work) and brings
// v8 to its top tier.
func setupKernels(progs []program, class workloads.Class, tr *tracer) (*kernelSetup, error) {
	s := &kernelSetup{}
	mods := make([]*wasm.Module, len(progs))
	for i, p := range progs {
		mods[i], _ = p.spec.BuildFn(class)
	}
	for _, en := range kernelEngines {
		eng, cleanup, err := harness.NewEngine(en)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, cleanup)
		if cs, ok := eng.(core.CacheSetter); ok {
			cs.SetCache(nil)
		}
		strategies := mem.Strategies()
		if en == harness.EngineWasm3 {
			strategies = []mem.Strategy{mem.Trap}
		}
		for i, p := range progs {
			m := mods[i]
			op := tr.newOp()
			var cm core.CompiledModule
			tr.call(engineLayer[en]+".compile", 0, op, func() { cm, err = eng.Compile(m) })
			if err != nil {
				s.close()
				return nil, fmt.Errorf("compile %s on %s: %w", p.spec.Name, en, err)
			}
			if en == harness.EngineV8 {
				t0 := time.Now()
				var ok bool
				tr.call("tiered.ready", 0, op, func() { ok = tiered.WaitReady(cm, 30*time.Second) })
				if !ok {
					s.close()
					return nil, fmt.Errorf("v8 top tier of %s not ready", p.spec.Name)
				}
				s.readyMs = append(s.readyMs, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			for _, st := range strategies {
				s.cells = append(s.cells, &kcell{prog: p, engine: en, strategy: st, cm: cm})
			}
		}
	}
	return s, nil
}

func runKernels(cfg runConfig) (*result, error) {
	res := newResult()
	progs, err := loadPrograms(kernelPrograms, cfg)
	if err != nil {
		return nil, err
	}
	var setup *kernelSetup
	timer := setupTimer{ys: cfg.ys}
	for i := 0; i < setupReps; i++ {
		if setup != nil {
			setup.close()
		}
		runtime.GC() // free the previous set-up before timing the next
		timer.start()
		setup, err = setupKernels(progs, cfg.class, cfg.tr)
		if err != nil {
			return nil, err
		}
		timer.stop()
	}
	defer setup.close()
	timer.report(res)

	cells := setup.cells
	order := rotation(cells, cfg.seed)

	profile := isa.X86_64()
	as := vmm.New(profile.VM)
	tr := cfg.tr
	ops := 0
	var timed []execOp
	before := as.Snapshot()
	win := startWindow()
	deadline := time.Now().Add(cfg.duration)
	// The first round always completes, so every cell has a sample.
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, c := range order {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			// Trace every other round: none and the other strategies
			// alternate within a round, so alternating ops would trace
			// only one side.
			traced := tr != nil && round%2 == 0
			t := tr
			if !traced {
				t = nil
			}
			ops++
			res.attempted++
			group := c.prog.spec.Name + "/" + c.engine
			execNs, readyNs, err := kernelOp(c, cfg, core.Config{Strategy: c.strategy, Profile: profile, AS: as}, t)
			timed = append(timed, execOp{c.strategy, group, execNs / 1e6})
			if err != nil {
				res.failed++
				res.notef("failed: %s/%s/%s: %v", c.prog.spec.Name, c.engine, c.strategy, err)
				continue
			}
			k := 0
			if traced {
				k = 1
			}
			c.exec[k] = append(c.exec[k], execNs)
			c.ready[k] = append(c.ready[k], readyNs)
			c.execMs = append(c.execMs, execNs/1e6)
		}
	}
	ws := win.end()
	delta := snapshotDelta(before, as.Snapshot())
	res.e2e["retained_rss_mb"] = ws.RetainedMiB

	// End-to-end: exec_rel pairs each invoke with the none invokes on
	// either side; ready is the geomean of the cells' median
	// instantiate times.
	samples := execSamples{}
	var readies []float64
	for _, c := range cells {
		for _, ms := range c.execMs {
			samples.add(c.strategy, c.prog.spec.Name+"/"+c.engine, ms)
		}
		readies = append(readies, median(pooled(c.ready))/1e3)
	}
	setExec(res, samples, pairedRels(timed))
	res.layer["core.ready_us.p50"] = geomean(readies)
	res.notef("kernels: %d cells, %d ops", len(cells), ops)
	for _, c := range cells {
		res.notef("cell %s/%s/%s: median invoke %.3f ms over %d",
			c.prog.spec.Name, c.engine, c.strategy, median(c.execMs), len(c.execMs))
	}

	if tr == nil {
		return res, nil
	}
	l := res.layer
	perEngine := map[string][]float64{}
	var wasiMs []float64
	var tracedRatios []float64
	for _, c := range cells {
		m := median(c.exec[1]) / 1e6
		perEngine[c.engine] = append(perEngine[c.engine], m)
		if c.prog.spec.NewEnv != nil {
			wasiMs = append(wasiMs, m)
		}
		if len(c.exec[0]) > 0 && len(c.exec[1]) > 0 {
			tracedRatios = append(tracedRatios, median(c.exec[1])/median(c.exec[0]))
		}
	}
	for en, layer := range engineLayer {
		l[layer+".invoke_ms"] = geomean(perEngine[en])
	}
	l["wasi.invoke_ms"] = geomean(wasiMs)
	l["tiered.ready_ms"] = median(setup.readyMs)
	if len(tracedRatios) > 0 {
		l["obs.trace_overhead_pct"] = 100 * (geomean(tracedRatios) - 1)
	}
	self := tr.selfTimes()
	l["core.instantiate_us"] = selfMedian(self, "core.instantiate", 1e3)
	instByStrategy := map[mem.Strategy][]float64{}
	for _, c := range cells {
		instByStrategy[c.strategy] = append(instByStrategy[c.strategy], c.ready[1]...)
	}
	for _, st := range mem.Strategies() {
		l["core.instantiate_us."+st.String()] = median(instByStrategy[st]) / 1e3
	}
	l["core.close_us"] = selfMedian(self, "core.close", 1e3)
	setVMPerOp(l, delta, ops)
	setWindow(l, ws, ops)

	if err := pipelineLayers(modulesOf(progs, cfg.class), tr, l); err != nil {
		return nil, err
	}
	if err := repeatedCounts(res, progs, kernelEngines, cfg.class); err != nil {
		return nil, err
	}
	return res, nil
}

// rotation orders the ops of one round: a seeded order of the
// program × engine groups, each group's ops adjacent. Within a group,
// none runs before, between and after the other strategies, which run
// in a seeded order: none, s1, none, s2, ..., none. The host's speed
// changes by up to 2x within a second, so exec_rel compares each
// invoke with the none invokes right next to it.
func rotation(cells []*kcell, seed int64) []*kcell {
	var groups [][]*kcell
	index := map[string]int{}
	for _, c := range cells {
		k := c.prog.spec.Name + "/" + c.engine
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var out []*kcell
	for _, g := range groups {
		var none *kcell
		var others []*kcell
		for _, c := range g {
			if c.strategy == mem.None {
				none = c
			} else {
				others = append(others, c)
			}
		}
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		if none == nil { // wasm3 runs trap only
			out = append(out, others...)
			continue
		}
		out = append(out, none)
		for _, c := range others {
			out = append(out, c, none)
		}
	}
	return out
}

// kernelOp runs one isolate lifecycle: instantiate, invoke, check,
// close. It returns the invoke and instantiate times in ns.
func kernelOp(c *kcell, cfg runConfig, conf core.Config, tr *tracer) (execNs, readyNs float64, err error) {
	var im core.Imports
	if c.prog.spec.NewEnv != nil {
		im = c.prog.spec.NewEnv(cfg.class).Imports()
	}
	op := tr.newOp()
	root := tr.begin("kernels.op", 0, op)
	defer tr.end(root)
	sp := tr.begin("core.instantiate", root.ID, op)
	t0 := time.Now()
	inst, err := c.cm.Instantiate(conf, im)
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("instantiate: %w", err)
	}
	sp = tr.begin(engineLayer[c.engine]+".invoke", root.ID, op)
	t2 := time.Now()
	out, err := inst.Invoke(workloads.Entry)
	t3 := time.Now()
	tr.end(sp)
	tr.call("core.close", root.ID, op, func() {
		if cerr := inst.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if len(out) == 0 || out[0] != c.prog.want {
		return 0, 0, fmt.Errorf("checksum %#x, want %#x", first(out), c.prog.want)
	}
	return float64(t3.Sub(t2).Nanoseconds()), float64(t1.Sub(t0).Nanoseconds()), nil
}

func modulesOf(progs []program, class workloads.Class) []*wasm.Module {
	var out []*wasm.Module
	for _, p := range progs {
		m, _, _ := p.spec.BuildChecked(class)
		out = append(out, m)
	}
	return out
}

func first(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}
