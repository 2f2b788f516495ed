package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"goldfish"
)

// refSeconds is BENCHMARK.json's run_seconds: the measured schedules below
// are sized so that, on the 2-vCPU reference box, one run measures for about
// this long. --seconds scales every schedule linearly from it. The work of a
// run is therefore fixed by (workload, seed, seconds) — the same on both
// sides of a comparison, and bit-reproducible — rather than by the clock.
const refSeconds = 20

// options selects one workload run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool      // smoke-test sizes: tiny scale, a couple of rounds
	outDir   string    // report and trace files go here; "" writes none
	start    time.Time // what setup_s counts from (process start under main)
}

// metric is one reported value. N, Q1 and Q3 describe the in-run samples a
// median was taken over (absent for single measurements).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Samples are the in-run samples themselves, in the order measured; the
	// report file keeps them, the result line does not.
	Samples []float64 `json:"samples,omitempty"`
}

// check is one output check; a failed check is a failed operation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// environment is the header every report carries.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Degraded   bool   `json:"degraded"` // fewer than the 2 CPUs the sizes assume
}

// report is everything one workload run measured.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        bool               `json:"trace"`
	Quick        bool               `json:"quick,omitempty"`
	Env          environment        `json:"env"`
	EndToEnd     map[string]metric  `json:"end_to_end"`
	Placeholders []string           `json:"placeholders,omitempty"` // end-to-end metrics not defined on this workload
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
	LayerShares  map[string]float64 `json:"layer_shares,omitempty"`
	SelfTimes    []selfTime         `json:"self_times,omitempty"`
	Checks       []check            `json:"checks"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	StateSHA256  string             `json:"state_sha256,omitempty"`
}

// bench is the state of one run.
type bench struct {
	opt options
	rec *recorder // nil unless tracing
	rep *report
}

// scaled sizes a measured schedule: full is the count at refSeconds, quick
// the smoke-test count; the result never drops below min.
func (b *bench) scaled(full, quick, min int) int {
	if b.opt.quick {
		return quick
	}
	n := int(math.Round(float64(full) * float64(b.opt.seconds) / refSeconds))
	if n < min {
		n = min
	}
	return n
}

// quarter sizes a traced run's windows: a quarter of the measured schedule,
// run once untraced and once traced.
func quarter(n int) int {
	if n < 4 {
		return 1
	}
	return n / 4
}

// pick returns quick in smoke-test runs and full otherwise (set-up sizes do
// not scale with --seconds: shortening set-up is what made an earlier
// benchmark too noisy to gate).
func (b *bench) pick(full, quick int) int {
	if b.opt.quick {
		return quick
	}
	return full
}

// preset resolves a dataset preset at the workload's scale. Smoke-test runs
// use the tiny scale cut to 100 rows, so that all four workloads fit in a
// few seconds even under the race detector.
func (b *bench) preset(dataset string, scale goldfish.Scale) (goldfish.Preset, error) {
	if b.opt.quick {
		scale = goldfish.ScaleTiny
	}
	p, err := goldfish.NewPreset(dataset, scale, b.opt.seed)
	if b.opt.quick {
		p.Spec.Train, p.Spec.Test = 100, 40
	}
	return p, err
}

// generate and partition are the data part of every workload's set-up, timed
// as data.generate_ms and data.partition_ms.
func (b *bench) generate(p goldfish.Preset, setup int) (train, test *goldfish.Dataset, err error) {
	sec := b.rec.timed("data.generate", setup, -1, func() { train, test, err = p.Generate() })
	b.setLayer("data.generate_ms", sec*1e3)
	return train, test, err
}

func (b *bench) partition(setup int, split func() ([]*goldfish.Dataset, error)) (parts []*goldfish.Dataset, err error) {
	sec := b.rec.timed("data.partition", setup, -1, func() { parts, err = split() })
	b.setLayer("data.partition_ms", sec*1e3)
	return parts, err
}

// stillListed counts the rows of a client that RemainingRows still returns.
func stillListed(e *goldfish.Engine, client int, rows []int) int {
	remaining := map[int]bool{}
	for _, r := range e.RemainingRows(client) {
		remaining[r] = true
	}
	n := 0
	for _, r := range rows {
		if remaining[r] {
			n++
		}
	}
	return n
}

// op counts attempted operations (rounds, deletion cycles, requests).
func (b *bench) op(n int) { b.rep.OpsAttempted += n }

// check records an output check; a failure is a failed operation.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.rep.Checks = append(b.rep.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	b.rep.OpsAttempted++
	if !ok {
		b.rep.OpsFailed++
	}
}

// shortRunFloor is the accuracy threshold of traced and quick runs: a traced
// run trains for a quarter of the rounds and a quick run for two, so neither
// has converged and both only assert the value is a valid ratio. The smoke
// test raises it above 1 to see a failed check through to the exit code.
var shortRunFloor = 0.0

// floor is an accuracy threshold that only binds on full-window runs.
func (b *bench) floor(full float64) float64 {
	if b.opt.quick || b.opt.trace {
		return shortRunFloor
	}
	return full
}

func (b *bench) setE2E(name string, v float64) {
	b.rep.EndToEnd[name] = metric{Value: v, Unit: units[name]}
}

func (b *bench) setE2ESamples(name string, xs []float64) {
	b.rep.EndToEnd[name] = metric{Value: median(xs), Unit: units[name], N: len(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Samples: xs}
}

// setLayer records a per-layer metric; timed runs keep none.
func (b *bench) setLayer(name string, v float64) {
	if b.rep.PerLayer != nil {
		b.rep.PerLayer[name] = metric{Value: v, Unit: units[name]}
	}
}

// fedRun drives one engine a round at a time so every round can be timed
// (and, when tracing, wrapped in a harness span).
type fedRun struct {
	e      *goldfish.Engine
	epochs int // nominal local epochs, for trainers that do not report theirs
	last   goldfish.RoundStats
}

func newFedRun(epochs int, opts ...goldfish.Option) (*fedRun, error) {
	f := &fedRun{epochs: epochs}
	opts = append(opts, goldfish.WithRoundHook(func(rs goldfish.RoundStats) { f.last = rs }))
	e, err := goldfish.New(opts...)
	if err != nil {
		return nil, err
	}
	f.e = e
	return f, nil
}

// window accumulates measured rounds.
type window struct {
	rounds  []float64 // wall seconds per round
	samples float64   // Σ NumSamples × local epochs actually run
}

func (w *window) wall() float64 {
	var s float64
	for _, r := range w.rounds {
		s += r
	}
	return s
}

// runRounds runs n rounds back to back, adding them to w when it is non-nil
// (warm-up and pre-training pass nil). parent is the enclosing harness span.
func (b *bench) runRounds(ctx context.Context, f *fedRun, n int, w *window, parent int) error {
	for i := 0; i < n; i++ {
		round := f.e.Round()
		id := b.rec.begin("harness/round", parent, round)
		t0 := time.Now()
		err := f.e.Run(ctx, 1)
		sec := time.Since(t0).Seconds()
		b.rec.end(id)
		if w != nil {
			b.op(1)
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if w == nil {
			continue
		}
		w.rounds = append(w.rounds, sec)
		for _, u := range f.last.Updates {
			epochs := f.epochs
			if c := f.e.Client(u.ClientID); c != nil {
				epochs = c.LastEpochs()
			}
			w.samples += float64(u.NumSamples * epochs)
		}
	}
	return nil
}

// markSetup closes the set-up phase: everything from run start (process
// start under main) to the first measured round or request, warm-up and
// pre-training rounds included, so lazy initialisation pushed into the first
// rounds still shows.
func (b *bench) markSetup() { b.setE2E("setup_s", time.Since(b.opt.start).Seconds()) }

// finishWindow reports the metrics every workload shares.
func (b *bench) finishWindow(w *window) {
	b.setE2ESamples("round_p50_s", w.rounds)
	b.setE2E("samples_per_s", w.samples/w.wall())
	b.setE2E("peak_rss_mb", peakRSSMB())
}

// fillPlaceholders completes the two metric sets, since the pipeline wants
// every run to print every metric of its set. An end-to-end metric that is
// not defined on this workload repeats the run's round_p50_s (a constant
// would be refused, and 0 is not allowed) and is listed in the report's
// placeholders; a per-layer metric of a layer the workload does not run
// reads 0. A metric that is defined on the workload and was not measured is
// an error: a placeholder must never stand in for a number that went missing.
func (b *bench) fillPlaceholders() error {
	for _, m := range endToEnd {
		_, measured := b.rep.EndToEnd[m.name]
		switch {
		case measured:
		case m.appliesTo(b.opt.workload):
			return fmt.Errorf("end-to-end metric %s is defined on this workload and was not measured", m.name)
		default:
			b.setE2E(m.name, b.rep.EndToEnd["round_p50_s"].Value)
			b.rep.Placeholders = append(b.rep.Placeholders, m.name)
		}
	}
	if !b.opt.trace {
		return nil
	}
	for _, m := range perLayer {
		_, measured := b.rep.PerLayer[m.name]
		switch {
		case measured:
		case m.appliesTo(b.opt.workload):
			return fmt.Errorf("per-layer metric %s is defined on this workload and was not measured", m.name)
		default:
			b.setLayer(m.name, 0)
		}
	}
	return nil
}

// peakRSSMB reads this process's high-water resident set size (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stateSHA256 hashes a global state vector bit for bit.
func stateSHA256(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

// report writes the go.* metrics for a window of the given round count.
func (m *memDelta) report(b *bench, rounds int) {
	n := float64(rounds)
	b.setLayer("go.alloc_mb_per_round", float64(m.after.TotalAlloc-m.before.TotalAlloc)/(1<<20)/n)
	b.setLayer("go.allocs_per_round", float64(m.after.Mallocs-m.before.Mallocs)/n)
	b.setLayer("go.gc_cycles", float64(m.after.NumGC-m.before.NumGC))
	b.setLayer("go.gc_pause_ms", float64(m.after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// tracedWindow is a window run with the program's Observer attached.
type tracedWindow struct {
	window
	buf      bytes.Buffer
	obs      *goldfish.Observer
	offsetUS int64 // observer creation time on the harness clock
}

// observe returns ctx carrying a fresh in-memory Observer.
func (b *bench) observe(ctx context.Context, tw *tracedWindow) context.Context {
	tw.offsetUS = time.Since(b.rec.epoch).Microseconds()
	tw.obs = goldfish.NewObserver(&tw.buf)
	return goldfish.WithObservability(ctx, tw.obs)
}

// reportFed turns the program's own fed/* spans from a traced window into
// the in-situ fed.* and obs.* metrics, and merges them into the recorder.
func (b *bench) reportFed(tw *tracedWindow, untracedP50 float64) error {
	if err := tw.obs.TraceErr(); err != nil {
		return err
	}
	spans, starts, err := parseProgramTrace(tw.buf.Bytes())
	if err != nil {
		return err
	}
	b.rec.adopt(spans, tw.offsetUS)
	sum, count := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		sum[s.name] += float64(s.durUS) / 1e3
		count[s.name]++
	}
	rounds := count["fed/round"]
	if rounds == 0 {
		return fmt.Errorf("traced window recorded no fed/round span")
	}
	phases := 0.0
	for _, p := range []string{"sample", "train", "score", "aggregate"} {
		b.setLayer("fed."+p+"_ms", sum["fed/"+p]/rounds)
		phases += sum["fed/"+p]
	}
	b.setLayer("fed.phase_coverage", phases/sum["fed/round"])
	if count["fed/client_train"] > 0 && sum["fed/train"] > 0 {
		meanClient := sum["fed/client_train"] / count["fed/client_train"]
		b.setLayer("fed.straggler_wait_share", 1-meanClient/(sum["fed/train"]/count["fed/train"]))
	}
	b.setLayer("obs.spans_per_round", float64(starts)/rounds)
	b.setLayer("obs.trace_bytes_per_round", float64(tw.buf.Len())/rounds)
	b.setLayer("trace.overhead_pct", 100*(median(tw.rounds)/untracedP50-1))
	return nil
}
