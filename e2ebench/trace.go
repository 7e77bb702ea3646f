package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	name       string
	id, parent int
	start, end time.Time
}

// tracer keeps spans in memory; a nil or disabled tracer records
// nothing and hands out id 0, so the untraced path costs one branch.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.enabled() {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: now})
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if id == 0 || !t.enabled() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose interval is already known, such as a job's
// server-side queue wait taken from its status timestamps.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.enabled() || end.Before(start) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	return id
}

// take returns the spans recorded so far and clears the tracer.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover. Children
// that overlap each other (server-side intervals beside client polls)
// are merged before subtracting.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.end.IsZero() {
			continue
		}
		out[s.name] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if b.IsZero() {
			continue
		}
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
