package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// sharedInvokes is each worker's invoke count per RunShared call. The
// host's speed changes within a second, and short calls keep a
// strategy's call close in time to the none calls it is compared with:
// with 600 invokes (0.5 s calls) the exec_rel spread over 10 s windows
// was 0.06-0.19, with 100 (0.1 s calls) 0.01-0.03. Each call's p99 then
// has 2 samples beyond it; the median over calls steadies it.
const sharedInvokes = 100

// attachReps is how many thread groups the ready probe attaches after
// each call.
const attachReps = 10

// sharedCall is one harness.RunShared call and what it returned.
type sharedCall struct {
	strategy mem.Strategy
	traced   bool
	res      *harness.ThreadsResult
}

func sharedOptions(cfg runConfig, st mem.Strategy) harness.ThreadsOptions {
	geo := workloads.SharedShape(cfg.class)
	return harness.ThreadsOptions{
		Engine:   harness.EngineWAVM,
		Strategy: st,
		Profile:  isa.X86_64(),
		Class:    cfg.class,
		Workers:  min(nproc(), geo.Workers),
		Invokes:  sharedInvokes,
	}
}

// checkShared reports why a call's result is wrong, or nil.
func checkShared(cfg runConfig, r *harness.ThreadsResult) error {
	want := workloads.SharedDigestNative(cfg.class, r.Workers, r.Rounds)
	if cfg.corrupt == "shared-grow" {
		want ^= 1
	}
	if r.Digest != want {
		return fmt.Errorf("digest %#x, want %#x", r.Digest, want)
	}
	return nil
}

func runSharedGrow(cfg runConfig) (*result, error) {
	res := newResult()
	// Calls alternate between none and the other strategies, in a
	// seeded order: none, s1, none, s2, none, ... The host's speed
	// changes by up to 2x from one call to the next few, so each
	// strategy's call is compared with the none calls right before and
	// after it.
	all := mem.Strategies()
	others := all[1:] // all[0] is none
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })

	// Set-up is a warm-up call plus the compile the attach probe uses.
	// The first call in a process runs 2-4x slower than the rest (it
	// compiles the module and warms the allocator). Warm-up digests are
	// not checked; the measured calls' are.
	m, _, err := workloads.SharedSpec().BuildChecked(cfg.class)
	if err != nil {
		return nil, err
	}
	var cm core.CompiledModule
	timer := setupTimer{ys: cfg.ys}
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start each timed set-up from a collected heap
		timer.start()
		if _, err := harness.RunShared(sharedOptions(cfg, all[i%len(all)])); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if cm, err = compiled.NewWAVM().Compile(m); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		timer.stop()
	}
	timer.report(res)

	tr := cfg.tr
	profile := isa.X86_64()
	as := vmm.New(profile.VM)
	var calls []sharedCall
	var ops []execOp
	attach := map[mem.Strategy][]float64{}
	win := startWindow()
	deadline := time.Now().Add(cfg.duration)
	// The first round of strategies always completes, and the last
	// call is a none call, so every strategy call has a none call on
	// each side.
	for i := 0; i < 2*len(others)+1 || i%2 == 0 || time.Now().Before(deadline); i++ {
		// Collect between calls, so that each call starts from the
		// same heap and pays no GC debt left by the one before.
		runtime.GC()
		st := mem.None
		if i%2 == 1 {
			st = others[(i/2)%len(others)]
		}
		c := sharedCall{strategy: st, traced: tr != nil && (i/(2*len(others)))%2 == 0}
		t := tr
		if !c.traced {
			t = nil
		}
		res.attempted++
		sp := t.begin("harness.run_shared", 0, t.newOp())
		c.res, err = harness.RunShared(sharedOptions(cfg, st))
		t.end(sp)
		if err == nil {
			err = checkShared(cfg, c.res)
		}
		if err != nil {
			res.failed++
			res.notef("failed: %s: %v", st, err)
			ops = append(ops, execOp{strategy: st, group: "shared-grow"})
			continue
		}
		calls = append(calls, c)
		ops = append(ops, execOp{st, "shared-grow", float64(c.res.P50Ns) / 1e6})
		for k := 0; k < attachReps; k++ {
			res.attempted++
			d, err := attachGroup(cm, m, core.Config{Strategy: st, Profile: profile, AS: as}, c.res.Workers, t)
			if err != nil {
				res.failed++
				res.notef("failed: attach %s: %v", st, err)
				continue
			}
			attach[st] = append(attach[st], d)
		}
	}
	ws := win.end()
	res.e2e["retained_rss_mb"] = ws.RetainedMiB

	// exec_rel pairs each call's p50 invoke with the none calls on
	// either side; ready is the geomean over strategies of the median
	// time to attach a thread group.
	samples := execSamples{}
	var readies []float64
	for _, xs := range attach {
		readies = append(readies, median(xs))
	}
	var p50, p99, growP99, stallP99, cleanP99, stalled []float64
	var invokes int
	var vm struct{ mmap, mprotect, minor, uffd, segv, contended, waitNs float64 }
	for _, c := range calls {
		r := c.res
		samples.add(c.strategy, "shared-grow", float64(r.P50Ns)/1e6)
		p50 = append(p50, float64(r.P50Ns)/1e6)
		p99 = append(p99, float64(r.P99Ns)/1e6)
		growP99 = append(growP99, float64(r.GrowP99Ns)/1e3)
		stallP99 = append(stallP99, float64(r.GrowStallP99Ns)/1e6)
		cleanP99 = append(cleanP99, float64(r.CleanP99Ns)/1e6)
		n := r.Workers * r.Invokes
		invokes += n
		stalled = append(stalled, float64(r.Stalled)/float64(n))
		vm.mmap += float64(r.MmapCalls)
		vm.mprotect += float64(r.MprotectCalls)
		vm.minor += float64(r.MinorFaults)
		vm.uffd += float64(r.UffdFaults)
		vm.segv += float64(r.SegvFaults)
		vm.contended += float64(r.LockContended)
		vm.waitNs += float64(r.LockWaitNs)
	}
	setExec(res, samples, pairedRels(ops))
	res.layer["core.ready_us.p50"] = geomean(readies)
	l := res.layer
	l["shared.invoke_ms.p50"] = median(p50)
	l["shared.invoke_ms.p99"] = median(p99)
	l["mem.grow_us.p99"] = median(growP99)
	l["mem.grow_stall_ms.p99"] = median(stallP99)
	l["mem.clean_ms.p99"] = median(cleanP99)
	l["mem.stalled_share"] = median(stalled)
	res.notef("shared-grow: %d calls, %d invokes", len(calls), invokes)
	if tr == nil {
		return res, nil
	}

	if invokes > 0 {
		n := float64(invokes)
		l["vmm.mmap_per_op"] = vm.mmap / n
		l["vmm.mprotect_per_op"] = vm.mprotect / n
		l["vmm.minor_faults_per_op"] = vm.minor / n
		l["vmm.uffd_faults_per_op"] = vm.uffd / n
		l["vmm.segv_faults_per_op"] = vm.segv / n
		l["vmm.lock_contended_per_op"] = vm.contended / n
		l["vmm.lock_wait_us_per_op"] = vm.waitNs / 1e3 / n
	}
	setWindow(l, ws, invokes)
	var traced, untraced []float64
	for _, c := range calls {
		if c.traced {
			traced = append(traced, float64(c.res.P50Ns))
		} else {
			untraced = append(untraced, float64(c.res.P50Ns))
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		l["obs.trace_overhead_pct"] = 100 * (median(traced)/median(untraced) - 1)
	}
	l["core.instantiate_us"] = selfMedian(tr.selfTimes(), "core.instantiate", 1e3)
	progs := []program{{spec: workloads.SharedSpec()}}
	if err := pipelineLayers([]*wasm.Module{m}, tr, l); err != nil {
		return nil, err
	}
	if err := repeatedCounts(res, progs, []string{harness.EngineWAVM}, cfg.class); err != nil {
		return nil, err
	}
	return res, nil
}

// attachGroup times what a thread group waits for before its first
// invoke: a fresh shared memory and one instance per worker attached to
// it. It returns the time in µs.
func attachGroup(cm core.CompiledModule, m *wasm.Module, conf core.Config, workers int, tr *tracer) (float64, error) {
	op := tr.newOp()
	root := tr.begin("shared.attach", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	var shm *mem.Memory
	var err error
	tr.call("core.shared_memory", root.ID, op, func() { shm, err = core.NewSharedMemory(m, conf) })
	if err != nil {
		return 0, err
	}
	defer shm.Close()
	conf.SharedMem = shm
	insts := make([]core.Instance, 0, workers)
	defer func() {
		for _, inst := range insts {
			inst.Close()
		}
	}()
	for w := 0; w < workers; w++ {
		var inst core.Instance
		tr.call("core.instantiate", root.ID, op, func() { inst, err = cm.Instantiate(conf, nil) })
		if err != nil {
			return 0, err
		}
		insts = append(insts, inst)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3, nil
}
