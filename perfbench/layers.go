package main

import (
	"fmt"
	"sort"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/flatten"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/rir"
	"leapsandbounds/internal/tiered"
	"leapsandbounds/internal/validate"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// pipelineReps is how many times the traced run walks the compile
// pipeline over a workload's modules.
const pipelineReps = 5

// pipelineLayers calls each stage of wavm's compile pipeline on every
// module, stage by stage in wavm's order (decode, validate, flatten,
// rir.Build, rir.Optimize+Compact, rir.Lower, rir.FuseMem), then runs
// a full cache-detached wavm compile of the same module. Emit time is
// the compile minus the stages it shares with the walk; it covers
// bounds-check elision and code emission, which have no public entry.
func pipelineLayers(mods []*wasm.Module, tr *tracer, l map[string]float64) error {
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	var emitUs []float64
	for rep := 0; rep < pipelineReps; rep++ {
		for _, m := range mods {
			stageNs, err := pipelineStages(m, tr)
			if err != nil {
				return err
			}
			var cerr error
			sp := tr.begin("compiled.compile", 0, tr.newOp())
			t0 := time.Now()
			_, cerr = eng.Compile(m)
			compileNs := time.Since(t0).Nanoseconds()
			tr.end(sp)
			if cerr != nil {
				return fmt.Errorf("compile: %w", cerr)
			}
			emitUs = append(emitUs, float64(compileNs-stageNs)/1e3)
		}
	}
	self := tr.selfTimes()
	for _, name := range []string{"wasm.decode", "validate.module", "flatten.module",
		"rir.build", "rir.optimize", "rir.lower", "rir.fusemem", "compiled.compile"} {
		l[name+"_us"] = selfMedian(self, name, 1e3)
	}
	l["compiled.emit_us"] = median(emitUs)
	return nil
}

// pipelineStages runs one module through the stages and returns the
// time spent in those a wavm compile also runs (all but decode).
func pipelineStages(m *wasm.Module, tr *tracer) (int64, error) {
	bin, err := wasm.Encode(m)
	if err != nil {
		return 0, fmt.Errorf("encode: %w", err)
	}
	op := tr.newOp()
	root := tr.begin("pipeline.module", 0, op)
	defer tr.end(root)
	stage := func(name string, f func() error) (int64, error) {
		sp := tr.begin(name, root.ID, op)
		t0 := time.Now()
		err := f()
		d := time.Since(t0).Nanoseconds()
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}
	var dm *wasm.Module
	if _, err := stage("wasm.decode", func() (err error) { dm, err = wasm.Decode(bin); return }); err != nil {
		return 0, err
	}
	var total int64
	add := func(d int64, err error) error { total += d; return err }
	if err := add(stage("validate.module", func() error { return validate.Module(dm) })); err != nil {
		return 0, err
	}
	imported := uint32(dm.NumImportedFuncs())
	ffs := make([]*flatten.Func, len(dm.Code))
	if err := add(stage("flatten.module", func() (err error) {
		for i := range dm.Code {
			if ffs[i], err = flatten.Flatten(dm, imported+uint32(i), &dm.Code[i]); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return 0, err
	}
	irs := make([][]rir.Inst, len(ffs))
	if err := add(stage("rir.build", func() (err error) {
		for i, ff := range ffs {
			if irs[i], err = rir.Build(ff); err != nil {
				return err
			}
		}
		return nil
	})); err != nil {
		return 0, err
	}
	passes := []struct {
		name string
		f    func(i int)
	}{
		{"rir.optimize", func(i int) { irs[i] = rir.Compact(rir.Optimize(irs[i], ffs[i].NumLocals)) }},
		{"rir.lower", func(i int) { irs[i], _ = rir.Lower(irs[i], ffs[i].NumLocals) }},
		{"rir.fusemem", func(i int) { irs[i], _ = rir.FuseMem(irs[i]) }},
	}
	for _, p := range passes {
		if err := add(stage(p.name, func() error {
			for i := range irs {
				p.f(i)
			}
			return nil
		})); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// countPass compiles the programs on a cache-detached wavm and reads
// the process-wide lowering and elision counters around it, then
// counts ops per invoke for every engine and program, and hostcalls
// per invoke for WASI programs. Nothing else may compile while it runs.
func countPass(progs []program, engines []string, class workloads.Class) (map[string]float64, error) {
	c := map[string]float64{}
	eng := compiled.NewWAVM()
	eng.SetCache(nil)
	rir0, bce0 := rir.Stats(), compiled.Stats()
	for _, p := range progs {
		m, _, err := p.spec.BuildChecked(class)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Compile(m); err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.spec.Name, err)
		}
	}
	rir1, bce1 := rir.Stats(), compiled.Stats()
	if in := rir1.OpsIn - rir0.OpsIn; in > 0 {
		c["rir.ops_out_ratio"] = float64(rir1.OpsOut-rir0.OpsOut) / float64(in)
	}
	c["rir.fused"] = float64(rir1.FusedCmpBr - rir0.FusedCmpBr + rir1.FusedLdOp - rir0.FusedLdOp)
	if n := bce1.ChecksElided - bce0.ChecksElided + bce1.ChecksEmitted - bce0.ChecksEmitted; n > 0 {
		c["compiled.checks_elided_ratio"] = float64(bce1.ChecksElided-bce0.ChecksElided) / float64(n)
	}

	profile := isa.X86_64()
	for _, en := range engines {
		var ops []float64
		for _, p := range progs {
			n, err := opsPerInvoke(en, p, class, profile)
			if err != nil {
				return nil, fmt.Errorf("op count %s on %s: %w", p.spec.Name, en, err)
			}
			ops = append(ops, n)
		}
		c[engineLayer[en]+".ops_per_invoke"] = geomean(ops)
	}

	var calls []float64
	for _, p := range progs {
		if p.spec.NewEnv == nil {
			continue
		}
		m, _, _ := p.spec.BuildChecked(class)
		cm, err := eng.Compile(m)
		if err != nil {
			return nil, err
		}
		as := vmm.New(profile.VM)
		inst, err := cm.Instantiate(core.Config{Strategy: mem.Trap, Profile: profile, AS: as}, p.spec.NewEnv(class).Imports())
		if err != nil {
			return nil, err
		}
		before := as.Snapshot().Hostcalls
		_, err = inst.Invoke(workloads.Entry)
		calls = append(calls, float64(as.Snapshot().Hostcalls-before))
		if cerr := inst.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("hostcall count %s: %w", p.spec.Name, err)
		}
	}
	if len(calls) > 0 {
		c["wasi.hostcalls_per_invoke"] = geomean(calls)
	}
	return c, nil
}

// repeatedCounts runs countPass twice and copies the counts into l.
// A count that differs between the passes is not a count: it is left
// out and the reason is reported.
func repeatedCounts(res *result, progs []program, engines []string, class workloads.Class) error {
	a, err := countPass(progs, engines, class)
	if err != nil {
		return err
	}
	b, err := countPass(progs, engines, class)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			res.notef("count %s did not repeat (%v, then %v): not reported as a count", k, a[k], b[k])
			continue
		}
		res.layer[k] = a[k]
	}
	return nil
}

func snapshotDelta(a, b vmm.StatsSnapshot) vmm.StatsSnapshot {
	return vmm.StatsSnapshot{
		MmapCalls:      b.MmapCalls - a.MmapCalls,
		MprotectCalls:  b.MprotectCalls - a.MprotectCalls,
		MinorFaults:    b.MinorFaults - a.MinorFaults,
		UffdFaults:     b.UffdFaults - a.UffdFaults,
		SegvFaults:     b.SegvFaults - a.SegvFaults,
		Shootdowns:     b.Shootdowns - a.Shootdowns,
		CowPagesCopied: b.CowPagesCopied - a.CowPagesCopied,
		LockContended:  b.LockContended - a.LockContended,
		LockWaitNs:     b.LockWaitNs - a.LockWaitNs,
	}
}

// setVMPerOp reports simulated-kernel traffic per operation.
func setVMPerOp(l map[string]float64, d vmm.StatsSnapshot, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	l["vmm.mmap_per_op"] = float64(d.MmapCalls) / n
	l["vmm.mprotect_per_op"] = float64(d.MprotectCalls) / n
	l["vmm.minor_faults_per_op"] = float64(d.MinorFaults) / n
	l["vmm.uffd_faults_per_op"] = float64(d.UffdFaults) / n
	l["vmm.segv_faults_per_op"] = float64(d.SegvFaults) / n
	l["vmm.shootdowns_per_op"] = float64(d.Shootdowns) / n
	l["vmm.cow_pages_per_op"] = float64(d.CowPagesCopied) / n
	l["vmm.lock_contended_per_op"] = float64(d.LockContended) / n
	l["vmm.lock_wait_us_per_op"] = float64(d.LockWaitNs) / 1e3 / n
}

// setWindow reports the host and Go runtime over the measured window.
func setWindow(l map[string]float64, ws windowStats, ops int) {
	l["runtime.gc_pause_ms"] = ws.GCPauseMs
	l["runtime.gc_cycles"] = ws.GCCycles
	if ops > 0 {
		l["runtime.alloc_mb_per_op"] = ws.AllocMiB / float64(ops)
	}
	l["runtime.sched_latency_us.p99"] = ws.SchedLatP99Us
	l["runtime.live_heap_mb"] = ws.LiveHeapMiB
	l["env.steal_pct"] = ws.StealPct
	l["env.iowait_pct"] = ws.IOWaitPct
}

// opsPerInvoke counts the operations one invoke of p executes on en
// (cycle model on, trap strategy). Unlike harness.OpHistogram it waits
// for v8's top tier before invoking, so the count does not depend on
// when the background tier-up lands.
func opsPerInvoke(en string, p program, class workloads.Class, profile *isa.Profile) (float64, error) {
	m, _, err := p.spec.BuildChecked(class)
	if err != nil {
		return 0, err
	}
	eng, cleanup, err := harness.NewEngine(en)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	cm, err := eng.Compile(m)
	if err != nil {
		return 0, err
	}
	if !tiered.WaitReady(cm, 30*time.Second) {
		return 0, fmt.Errorf("top tier not ready")
	}
	conf := core.Config{Strategy: mem.Trap, Profile: profile, CountCycles: true}
	if p.spec.Suite == "shared" {
		if conf.SharedMem, err = core.NewSharedMemory(m, conf); err != nil {
			return 0, err
		}
		defer conf.SharedMem.Close()
	}
	var im core.Imports
	if p.spec.NewEnv != nil {
		im = p.spec.NewEnv(class).Imports()
	}
	inst, err := cm.Instantiate(conf, im)
	if err != nil {
		return 0, err
	}
	_, err = inst.Invoke(workloads.Entry)
	var n float64
	if c := inst.Counts(); c != nil {
		n = float64(c.Total())
	}
	if cerr := inst.Close(); err == nil {
		err = cerr
	}
	return n, err
}
