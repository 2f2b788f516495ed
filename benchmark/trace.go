package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one traced interval. Harness spans wrap the calls this package
// makes into the repo's layers; program spans are the fed/* and unlearn/*
// spans the program itself emits through its Observer, re-based onto the
// harness clock and parented on the harness span that contains them.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// (tracing off) makes begin/end no-ops, so the timed run pays nothing.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string, epoch time.Time) *recorder {
	return &recorder{workload: workload, epoch: epoch}
}

// begin opens a span and returns its id (0 on a nil recorder). round is -1
// outside the round loop.
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartUS: time.Since(r.epoch).Microseconds(), Workload: r.workload, Round: round,
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndUS = time.Since(r.epoch).Microseconds()
}

// timed runs fn inside a span and returns its wall time in seconds; it is
// how every layer call is both measured and traced in one place.
func (r *recorder) timed(name string, parent, round int, fn func()) float64 {
	id := r.begin(name, parent, round)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	r.end(id)
	return d
}

// obsEvent is one line of the program's own JSONL trace (internal/obs).
type obsEvent struct {
	Ev     string `json:"ev"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	TUS    int64  `json:"t_us"`
	DurUS  int64  `json:"dur_us"`
	Attrs  struct {
		Round *int `json:"round"`
	} `json:"attrs"`
}

// programSpan is a completed span parsed from the program's trace.
type programSpan struct {
	name           string
	id, parent     int
	startUS, durUS int64
	round          int
}

// parseProgramTrace reads the observer's JSONL buffer into completed spans
// and counts the start events (the exact spans-emitted count).
func parseProgramTrace(buf []byte) (spans []programSpan, starts int, err error) {
	open := map[int]*programSpan{}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev obsEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, 0, fmt.Errorf("parsing program trace line %q: %w", sc.Text(), err)
		}
		switch ev.Ev {
		case "start":
			starts++
			ps := &programSpan{name: ev.Name, id: ev.ID, parent: ev.Parent, startUS: ev.TUS, round: -1}
			if ev.Attrs.Round != nil {
				ps.round = *ev.Attrs.Round
			}
			open[ev.ID] = ps
		case "end":
			if ps, ok := open[ev.ID]; ok {
				ps.durUS = ev.DurUS
				spans = append(spans, *ps)
				delete(open, ev.ID)
			}
		}
	}
	return spans, starts, sc.Err()
}

// adopt merges program spans into the recorder: times shift by offsetUS (the
// observer's creation time on the harness clock) and ids are renumbered after
// the harness spans. The program starts some spans as roots that run inside
// another (fed/client_train inside fed/train, fed/round inside the harness's
// round), so a root is parented on the innermost span, harness or program,
// whose interval contains it — never one of its own name: concurrent clients'
// spans contain each other by accident.
func (r *recorder) adopt(ps []programSpan, offsetUS int64) {
	if r == nil {
		return
	}
	base := len(r.spans)
	// Containers first: a span is adopted after every span that started
	// before it.
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].startUS < ps[j].startUS })
	for _, p := range ps {
		s := span{
			ID: base + p.id, Name: p.name, Workload: r.workload, Round: p.round,
			StartUS: p.startUS + offsetUS, EndUS: p.startUS + p.durUS + offsetUS,
		}
		if p.parent != 0 {
			s.Parent = base + p.parent
		} else {
			innermost := int64(-1)
			for _, h := range r.spans {
				if h.Name != s.Name && h.StartUS <= s.StartUS && s.EndUS <= h.EndUS && h.StartUS >= innermost {
					s.Parent, innermost = h.ID, h.StartUS
				}
			}
		}
		r.spans = append(r.spans, s)
	}
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTime is one row of the per-name summary: a name's total time and the
// part of it not covered by child spans.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, total duration and self time, largest self
// time first. A span's self time is its duration minus the part of it its
// children cover; children may overlap (clients train concurrently), so the
// covered part is the union of their intervals, not their sum.
func (r *recorder) selfTimes() []selfTime {
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartUS, s.EndUS})
	}
	child := map[int]int64{}
	for parent, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		end := int64(-1 << 62)
		for _, x := range iv {
			if x[0] > end {
				child[parent] += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				child[parent] += x[1] - end
				end = x[1]
			}
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndUS - s.StartUS
		st.Count++
		st.TotalS += float64(d) / 1e6
		st.SelfS += float64(d-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
