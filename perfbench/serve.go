package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leapsandbounds/internal/compiled"
	"leapsandbounds/internal/core"
	"leapsandbounds/internal/harness"
	"leapsandbounds/internal/isa"
	"leapsandbounds/internal/mem"
	"leapsandbounds/internal/modcache"
	"leapsandbounds/internal/vmm"
	"leapsandbounds/internal/wasm"
	"leapsandbounds/internal/workloads"
)

// serveRate is the open loop's fixed arrival rate. It keeps nproc = 2
// workers at most about a sixth busy, so the backlog stays
// short even while the host runs at half speed: at 500 and 250 req/s,
// queueing set even the fork arm's median time-to-ready, which then
// did not repeat from run to run.
const serveRate = 150.0

// serveGrace is how long the workers may drain the queue after the
// window closes; requests still queued then count as failed.
const serveGrace = time.Second

// The three provisioning arms of the serve workload.
const (
	armCold = iota // decode bytes, compile with the cache detached, instantiate
	armWarm        // compile through the module cache (a hit), instantiate
	armFork        // fork a template built during set-up
	numArms
)

var armNames = [numArms]string{"cold", "warm", "fork"}

// serveCorpus is every PolyBench and SPEC program.
func serveCorpus() []string {
	var names []string
	for _, suite := range []string{"polybench", "spec"} {
		for _, s := range workloads.Suite(suite) {
			names = append(names, s.Name)
		}
	}
	return names
}

// serveSetup is one set-up of the serve workload: one simulated
// process, a cold and a warm engine, and a template per program and
// strategy.
type serveSetup struct {
	as        *vmm.AddressSpace
	cold      *compiled.Engine
	warm      *compiled.Engine
	cache     *modcache.Cache
	bins      [][]byte
	mods      []*wasm.Module
	templates [][]*core.Template // [program][strategy]
}

func setupServe(progs []program, tr *tracer) (*serveSetup, error) {
	profile := isa.X86_64()
	s := &serveSetup{
		as:    vmm.New(profile.VM),
		cold:  compiled.NewWAVM(),
		warm:  compiled.NewWAVM(),
		cache: modcache.New(0),
	}
	s.cold.SetCache(nil)
	s.warm.SetCache(s.cache)
	for _, p := range progs {
		m, _ := p.spec.BuildFn(workloads.Test)
		bin, err := wasm.Encode(m)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", p.spec.Name, err)
		}
		cm, err := s.warm.Compile(m)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.spec.Name, err)
		}
		var ts []*core.Template
		for _, st := range mem.Strategies() {
			var t *core.Template
			tr.call("core.template", 0, tr.newOp(), func() {
				t, err = core.NewTemplate(cm, core.Config{Strategy: st, Profile: profile, AS: s.as}, nil, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("template %s/%s: %w", p.spec.Name, st, err)
			}
			ts = append(ts, t)
		}
		s.bins = append(s.bins, bin)
		s.mods = append(s.mods, m)
		s.templates = append(s.templates, ts)
	}
	return s, nil
}

// request is one scheduled arrival and what happened to it.
type request struct {
	due      time.Duration // since the window opened
	prog     int
	strategy mem.Strategy
	arm      int
	traced   bool

	// provision is the Instantiate or Fork call alone.
	late, queue, ready, provision, exec, busy time.Duration
	ok                                        bool
}

// serveSchedule draws the arrivals (Poisson at serveRate) and each
// request's program, strategy and arm from the seed alone.
func serveSchedule(seed int64, window time.Duration, nprogs int, traced bool) []request {
	rng := rand.New(rand.NewSource(seed))
	strategies := mem.Strategies()
	var reqs []request
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if t >= window {
			return reqs
		}
		reqs = append(reqs, request{
			due:      t,
			prog:     rng.Intn(nprogs),
			strategy: strategies[rng.Intn(len(strategies))],
			arm:      rng.Intn(numArms),
			traced:   traced && len(reqs)%2 == 0,
		})
	}
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	progs, err := loadPrograms(serveCorpus(), runConfig{class: workloads.Test, corrupt: cfg.corrupt})
	if err != nil {
		return nil, err
	}
	var setup *serveSetup
	timer := setupTimer{ys: cfg.ys}
	for i := 0; i < setupReps; i++ {
		setup = nil
		runtime.GC() // free the previous set-up before timing the next
		timer.start()
		setup, err = setupServe(progs, cfg.tr)
		if err != nil {
			return nil, err
		}
		timer.stop()
	}
	timer.report(res)

	reqs := serveSchedule(cfg.seed, cfg.duration, len(progs), cfg.tr != nil)
	workers := nproc()
	profile := isa.X86_64()
	before, cache0 := setup.as.Snapshot(), setup.cache.Stats()
	win := startWindow()
	epoch := time.Now()
	cutoff := epoch.Add(cfg.duration + serveGrace)

	// The workers are the generator: a free worker takes the next
	// request in schedule order and starts it at its due time. One that
	// reaches a request early waits for it (its lateness is the
	// generator's); one that reaches it late finds it queued.
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				due := epoch.Add(r.due)
				early := waitUntil(due)
				start := time.Now()
				if early {
					r.late = start.Sub(due)
				} else {
					r.queue = start.Sub(due)
				}
				if start.After(cutoff) {
					continue // still queued when the run ended: a failure
				}
				tr := cfg.tr
				if !r.traced {
					tr = nil
				}
				err := serveRequest(setup, progs, r, due, core.Config{Strategy: r.strategy, Profile: profile, AS: setup.as}, tr)
				r.busy = time.Since(start)
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s/%s/%s: %v", progs[r.prog].spec.Name, r.strategy, armNames[r.arm], err))
					mu.Unlock()
					continue
				}
				r.ok = true
			}
		}()
	}
	wg.Wait()
	wall := time.Since(epoch)
	ws := win.end()
	delta := snapshotDelta(before, setup.as.Snapshot())
	cache1 := setup.cache.Stats()
	res.e2e["retained_rss_mb"] = ws.RetainedMiB

	res.attempted = len(reqs)
	for i := range reqs {
		if !reqs[i].ok {
			res.failed++
		}
	}
	for _, f := range failures {
		res.notef("failed: %s", f)
	}
	if n := res.failed - len(failures); n > 0 {
		res.notef("failed: %d requests still queued when the run ended", n)
	}

	// End-to-end: exec from each program's median invoke per strategy;
	// ready is the geomean over arms of the median time-to-ready.
	type key struct {
		strategy mem.Strategy
		prog     int
	}
	execs := map[key][]float64{}
	var ready, readyTraced [numArms][]float64
	var late, queued []float64
	var busy time.Duration
	for _, r := range reqs {
		if !r.ok {
			continue
		}
		k := key{r.strategy, r.prog}
		execs[k] = append(execs[k], float64(r.exec.Nanoseconds())/1e6)
		if r.traced {
			readyTraced[r.arm] = append(readyTraced[r.arm], float64(r.ready.Nanoseconds())/1e3)
		} else {
			ready[r.arm] = append(ready[r.arm], float64(r.ready.Nanoseconds())/1e3)
		}
		late = append(late, float64(r.late.Nanoseconds())/1e3)
		queued = append(queued, float64(r.queue.Nanoseconds())/1e3)
		busy += r.busy
	}
	samples := execSamples{}
	for k, xs := range execs {
		for _, ms := range xs {
			samples.add(k.strategy, progs[k.prog].spec.Name, ms)
		}
	}
	setExec(res, samples, medianRels(samples))
	l := res.layer
	var armMedians, overhead []float64
	for a := 0; a < numArms; a++ {
		all := append(append([]float64(nil), ready[a]...), readyTraced[a]...)
		armMedians = append(armMedians, median(all))
		l["serve.ready_us."+armNames[a]+".p50"] = median(all)
		l["serve.ready_us."+armNames[a]+".p99"] = quantile(all, 0.99)
		if len(ready[a]) > 0 && len(readyTraced[a]) > 0 {
			overhead = append(overhead, median(readyTraced[a])/median(ready[a]))
		}
		res.notef("serve: %s arm %d requests", armNames[a], len(all))
	}
	res.layer["core.ready_us.p50"] = geomean(armMedians)
	l["harness.gen_late_us.p99"] = quantile(late, 0.99)
	l["harness.queue_us.p99"] = quantile(queued, 0.99)
	l["harness.busy_share"] = busy.Seconds() / (wall.Seconds() * float64(workers))
	if lookups := cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses; lookups > 0 {
		l["modcache.hit_ratio"] = modcache.HitRate(cache0, cache1)
	}
	res.notef("serve: %d requests at %g/s over %d workers", len(reqs), serveRate, workers)
	if cfg.tr == nil {
		return res, nil
	}

	tr := cfg.tr
	if len(overhead) > 0 {
		l["obs.trace_overhead_pct"] = 100 * (geomean(overhead) - 1)
	}
	self := tr.selfTimes()
	var invokeMeds []float64
	for _, xs := range execs {
		invokeMeds = append(invokeMeds, median(xs))
	}
	l["compiled.invoke_ms"] = geomean(invokeMeds)
	l["modcache.lookup_us"] = selfMedian(self, "modcache.lookup", 1e3)
	l["core.template_ms"] = selfMedian(self, "core.template", 1e6)
	l["core.close_us"] = selfMedian(self, "core.close", 1e3)
	l["core.instantiate_us"] = selfMedian(self, "core.instantiate", 1e3)
	l["core.fork_us"] = selfMedian(self, "core.fork", 1e3)
	provisions := map[string][]float64{}
	for _, r := range reqs {
		if r.ok && r.traced {
			k := "core.instantiate_us." + r.strategy.String()
			if r.arm == armFork {
				k = "core.fork_us." + r.strategy.String()
			}
			provisions[k] = append(provisions[k], float64(r.provision.Nanoseconds())/1e3)
		}
	}
	for k, xs := range provisions {
		l[k] = median(xs)
	}
	setVMPerOp(l, delta, len(reqs))
	setWindow(l, ws, len(reqs))
	if err := pipelineLayers(setup.mods, tr, l); err != nil {
		return nil, err
	}
	if err := repeatedCounts(res, progs, []string{harness.EngineWAVM}, workloads.Test); err != nil {
		return nil, err
	}
	return res, nil
}

// serveRequest provisions an instance by the request's arm, invokes
// it, checks the checksum and closes it.
func serveRequest(s *serveSetup, progs []program, r *request, due time.Time, conf core.Config, tr *tracer) error {
	op := tr.newOp()
	root := tr.begin("serve.request", 0, op)
	defer tr.end(root)
	var inst core.Instance
	var err error
	provision := func(name string, f func() (core.Instance, error)) {
		sp := tr.begin(name, root.ID, op)
		t0 := time.Now()
		inst, err = f()
		r.provision = time.Since(t0)
		tr.end(sp)
	}
	switch r.arm {
	case armCold:
		var m *wasm.Module
		tr.call("wasm.decode", root.ID, op, func() { m, err = wasm.Decode(s.bins[r.prog]) })
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		var cm core.CompiledModule
		tr.call("compiled.compile", root.ID, op, func() { cm, err = s.cold.Compile(m) })
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		provision("core.instantiate", func() (core.Instance, error) { return cm.Instantiate(conf, nil) })
	case armWarm:
		var cm core.CompiledModule
		tr.call("modcache.lookup", root.ID, op, func() { cm, err = s.warm.Compile(s.mods[r.prog]) })
		if err != nil {
			return fmt.Errorf("cached compile: %w", err)
		}
		provision("core.instantiate", func() (core.Instance, error) { return cm.Instantiate(conf, nil) })
	case armFork:
		provision("core.fork", s.templates[r.prog][r.strategy].Fork)
	}
	if err != nil {
		return err
	}
	r.ready = time.Since(due)
	sp := tr.begin("compiled.invoke", root.ID, op)
	t0 := time.Now()
	out, err := inst.Invoke(workloads.Entry)
	r.exec = time.Since(t0)
	tr.end(sp)
	tr.call("core.close", root.ID, op, func() {
		if cerr := inst.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	})
	if err != nil {
		return err
	}
	if len(out) == 0 || out[0] != progs[r.prog].want {
		return fmt.Errorf("checksum %#x, want %#x", first(out), progs[r.prog].want)
	}
	return nil
}

// waitUntil returns at t, sleeping while t is far and yielding in the
// last stretch, where the timer would overshoot by up to a
// millisecond. It reports whether it had to wait at all.
func waitUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return true
}
