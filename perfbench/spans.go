package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a matrix pass, a cell, a
// detail window, a warm shard, a cache hit, or a call into a layer's
// public API made by a probe. Parent is the id of the span that caused it
// (0 for a root); Cell is the (workload, config) key shared by every span
// of one cell.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by write
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every span in memory; write dumps them when the run ends.
// Times are nanoseconds since the log was created. Safe for concurrent use.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span starting now and returns its id.
func (l *spanLog) begin(name, cell string, parent int) int {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: t, End: -1})
	return id
}

// end closes span id now and returns it.
func (l *spanLog) end(id int) span {
	t := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = t
	return l.spans[id-1]
}

// around records fn as one span and returns its duration.
func (l *spanLog) around(name, cell string, parent int, fn func(id int) error) (time.Duration, error) {
	id := l.begin(name, cell, parent)
	t := time.Now()
	err := fn(id)
	d := time.Since(t)
	l.end(id)
	return d, err
}

// closed returns a copy of the finished spans.
func (l *spanLog) closed() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]span, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children cover (children may overlap
// each other, as concurrent windows of one cell do).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered int64
		cur := s.Start // covered up to here
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// write dumps the closed spans with their self times, stamped with the
// host facts, as JSON.
func (l *spanLog) write(path string, h host) error {
	spans := l.closed()
	self := selfTimes(spans)
	for i := range spans {
		spans[i].Self = int64(self[spans[i].ID])
	}
	data, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
