package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one call into a layer. Op is shared by all spans of one
// operation (a request, an invoke, a compile); Parent is 0 at the root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id (0 when untraced).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span; pass it to end when the call returns.
func (t *tracer) begin(name string, parent, op uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch).Nanoseconds()}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call wraps f in a span.
func (t *tracer) call(name string, parent, op uint64, f func()) {
	s := t.begin(name, parent, op)
	f()
	t.end(s)
}

// selfTimes returns every span's self time (its duration minus the
// part of it its children cover), grouped by span name, in ns.
func (t *tracer) selfTimes() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered(s, children[s.ID])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
