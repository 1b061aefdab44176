package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	req    int64 // request id: the op or window the call served
}

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// open starts a span and returns its id (-1 on a nil tracer).
func (t *tracer) open(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	t.mu.Unlock()
	return id
}

// close ends span id and returns its duration in ns.
func (t *tracer) close(id int32) int64 {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.end = now
	d := now - s.start
	t.mu.Unlock()
	return d
}

// add records an already measured interval as a span.
func (t *tracer) add(name string, start, end time.Time, parent int32, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)), parent: parent, req: req})
	t.mu.Unlock()
}

// layerTimes is the per-name aggregate of a span set.
type layerTimes struct {
	count int
	self  int64   // summed self time, ns
	durs  []int64 // every duration, ns
}

// layers aggregates the spans of requests (req >= 0) by name; base-load
// spans carry req -1 and are left out. A span's self time is its duration
// minus the part of its interval that its children cover; children may
// overlap (node tasks run concurrently), so the covered part is the union
// of their intervals, clipped to the parent.
func (t *tracer) layers() map[string]*layerTimes {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]*layerTimes)
	for i, s := range t.spans {
		if s.end < 0 || s.req < 0 {
			continue
		}
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.durs = append(lt.durs, d)
		lt.self += d - covered(kids[int32(i)], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}

// write dumps every span as CSV (name,start_ns,end_ns,parent,req) into dir.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fh, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		fh.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
