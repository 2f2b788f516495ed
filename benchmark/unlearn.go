package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"goldfish"
	"goldfish/internal/metrics"
)

// unlearn-sample: the same core/nn code as training, used the way a forget
// request uses it (teacher forward, distillation, forget steps, early
// termination, model re-initialisation), next to the retrain reference
// path (baselines.PlainTrainer) that no training workload touches.
//
// The schedule is fixed — every cycle deletes the next slice of client 0's
// poisoned rows and then runs exactly K rounds — not run-until-recovered:
// threshold-based recovery is chaotic for retrain (3 to more than 10 rounds
// for the same request), so recovery is reported as a count
// (unlearn.rounds_to_recover.*) and never sizes the measured work.
const (
	unlearnPretrain   = 6    // pre-training rounds per engine, part of set-up
	unlearnCycles     = 6    // measured deletion cycles per engine at refSeconds
	unlearnK          = 3    // rounds after each deletion
	unlearnPoison     = 0.3  // share of client 0's rows carrying the trigger
	unlearnRecoverAcc = 0.90 // accuracy that counts as recovered
	unlearnRecoverCap = 10   // rounds the recovery pass gives up after
)

var unlearnStrategies = []string{"goldfish", "retrain"}

// unlearnEngine is one strategy's engine and what its cycles measured.
type unlearnEngine struct {
	strategy  string
	f         *fedRun
	batch     int       // rows per evaluation batch of a probe
	cycles    []float64 // deletion call + K rounds, seconds
	calls     []float64 // the deletion call alone
	delRounds []float64 // first round after a deletion
	window    window    // every measured round
	asrBefore float64   // attack success rate after pre-training, before the first deletion
	accAfterK []float64 // test accuracy at the end of every cycle
}

func (b *bench) runUnlearn(ctx context.Context) error {
	p, err := b.preset("cifar10", goldfish.ScaleSmall)
	if err != nil {
		return err
	}
	setup := b.rec.begin("harness/setup", 0, -1)
	train, test, err := b.generate(p, setup)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	parts, err := b.partition(setup, func() ([]*goldfish.Dataset, error) {
		return goldfish.PartitionIID(train, trainClients, rng)
	})
	if err != nil {
		return err
	}
	bd := goldfish.DefaultBackdoor()
	poisoned, err := bd.Poison(parts[0], unlearnPoison, rng)
	if err != nil {
		return err
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		return err
	}
	cfg := p.ClientConfig()
	cfg.EarlyDelta = 0.05
	cfg.AdaptiveTemp = true

	// Set-up: both engines built identically and pre-trained on the
	// poisoned federation.
	engines := make([]*unlearnEngine, len(unlearnStrategies))
	for i, s := range unlearnStrategies {
		f, err := newFedRun(cfg.LocalEpochs, goldfish.WithPreset(p), goldfish.WithPartitions(parts),
			goldfish.WithClientConfig(cfg), goldfish.WithUnlearner(s))
		if err != nil {
			return err
		}
		if err := b.runRounds(ctx, f, b.pick(unlearnPretrain, 2), nil, setup); err != nil {
			return err
		}
		engines[i] = &unlearnEngine{strategy: s, f: f, batch: cfg.BatchSize}
	}
	b.rec.end(setup)
	b.markSetup()

	for _, en := range engines {
		acc, asr, err := en.probe(test, triggered, bd.TargetLabel)
		if err != nil {
			return err
		}
		en.asrBefore = asr
		b.setLayer("unlearn.asr_before."+en.strategy, asr)
		// Six rounds leave a slow seed at 0.6 and a fast one at 0.99; this
		// only establishes that there is a trained model to forget from.
		b.check("pretrained_accuracy."+en.strategy, acc >= b.floor(0.5), "%.3f, need >= %.2f", acc, b.floor(0.5))
	}

	// Every cycle forgets the next slice of the poisoned rows; the slices
	// cover all of them on a full run. A traced run does the first quarter
	// of the cycles twice over — untraced, then traced — plus one recovery
	// pass, and leaves the rest of the rows in place.
	cycles := b.scaled(unlearnCycles, 1, 1)
	slices := splitRows(poisoned, cycles)
	measured := cycles
	if b.opt.trace {
		measured = quarter(cycles)
		slices = splitRows(poisoned, 2*measured+1)
	}
	// The two engines take turns, cycle by cycle, so that a slow stretch of
	// the machine falls on both alike instead of on one engine's whole window.
	gold, ref := engines[0], engines[1]
	next := 0
	turns := func(goldCtx context.Context, goldW, refW *window) error {
		for c := 0; c < measured; c, next = c+1, next+1 {
			for _, turn := range []struct {
				ctx context.Context
				en  *unlearnEngine
				w   *window
			}{{goldCtx, gold, goldW}, {ctx, ref, refW}} {
				if err := b.cycle(turn.ctx, turn.en, slices[next], turn.w); err != nil {
					return err
				}
				// Where the model stands after K rounds, probed outside
				// everything the cycle times.
				acc, _, err := turn.en.probe(test, nil, 0)
				if err != nil {
					return err
				}
				turn.en.accAfterK = append(turn.en.accAfterK, acc)
			}
		}
		return nil
	}
	var mem memDelta
	mem.start()
	if err := turns(ctx, &gold.window, &ref.window); err != nil {
		return err
	}
	mem.stop()
	if b.opt.trace {
		// Only the goldfish engine runs under the Observer: its fed/* spans
		// are the ones reported, and one trace keeps rounds attributable.
		var tw tracedWindow
		if err := turns(b.observe(ctx, &tw), &tw.window, &window{}); err != nil {
			return err
		}
		mem.report(b, 2*measured*unlearnK)
		if err := b.reportFed(&tw, median(gold.window.rounds)); err != nil {
			return err
		}
	}
	if b.opt.trace {
		for _, en := range engines {
			n, err := b.recover(ctx, en, slices[next], test)
			if err != nil {
				return err
			}
			b.setLayer("unlearn.rounds_to_recover."+en.strategy, float64(n))
		}
		next++
	}
	var requested []int
	for _, s := range slices[:next] {
		requested = append(requested, s...)
	}

	b.finishWindow(&gold.window)
	// A deletion round distils and forgets, so it costs about half as much
	// again as a plain one; the median over both kinds sits on the edge
	// between the two modes and jumps with the seed. round_p50_s is therefore
	// taken over the plain rounds here; forget_p50_s carries the deletion rounds.
	b.setE2ESamples("round_p50_s", gold.plainRounds())
	b.setE2ESamples("forget_p50_s", gold.cycles)
	b.setE2ESamples("retrain_p50_s", ref.cycles)
	for _, en := range engines {
		b.setLayer("unlearn.forget_call_ms."+en.strategy, median(en.calls)*1e3)
		b.setLayer("unlearn.deletion_round_ms."+en.strategy, median(en.delRounds)*1e3)
		b.setLayer("unlearn.plain_round_ms."+en.strategy, median(en.plainRounds())*1e3)
		b.setLayer("unlearn.acc_after_k."+en.strategy, mean(en.accAfterK))
	}
	b.setLayer("unlearn.cost_vs_retrain", median(gold.cycles)/median(ref.cycles))

	for _, en := range engines {
		acc, asr, err := en.probe(test, triggered, bd.TargetLabel)
		if err != nil {
			return err
		}
		if !b.opt.trace && !b.opt.quick {
			// With every poisoned row gone the trigger must be inert. How
			// far it took during pre-training is chaotic in the seed (0.0
			// to 1.0 after six rounds, on either engine), so the check is
			// conditional: where the backdoor was in (ASR >= 0.3 before the
			// first deletion) it must be out now (<= 0.2); where it never
			// took, "forgotten" cannot be told from "never learned", and the
			// check only requires that no backdoor has appeared (<= 0.4: a
			// clean model sends up to a quarter of the stamped rows to the
			// target class on some seeds, a live backdoor 0.7 to 1.0).
			need := 0.4
			if en.asrBefore >= 0.3 {
				need = 0.2
			}
			b.check("final_asr."+en.strategy, asr <= need, "%.3f after %.3f before, need <= %.2f", asr, en.asrBefore, need)
		}
		// K rounds after a deletion the model is still recovering, and where
		// it stands then swings with the seed and the cycle (0.70 to 0.99);
		// the mean over the cycles is what holds still (0.82 to 0.98).
		afterK := mean(en.accAfterK)
		b.check("accuracy_after_k."+en.strategy, afterK >= b.floor(0.75), "mean %.3f over %d cycles, last %.3f, need >= %.2f",
			afterK, len(en.accAfterK), acc, b.floor(0.75))
		left := stillListed(en.f.e, 0, requested)
		b.check("deleted_rows_absent."+en.strategy, left == 0, "%d of %d deleted rows still listed", left, len(requested))
	}
	b.rep.StateSHA256 = stateSHA256(gold.f.e.Global())

	if b.opt.trace {
		return b.replayLayers(ctx, replayInput{
			cfg: cfg, part: parts[1], test: test, clients: len(parts), agg: goldfish.FedAvg{},
			state: gold.f.e.Global(), deletions: true, baseline: true,
		})
	}
	return nil
}

// splitRows cuts rows into n nearly equal consecutive slices.
func splitRows(rows []int, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = rows[i*len(rows)/n : (i+1)*len(rows)/n]
	}
	return out
}

// cycle is one forget operation: the deletion call, then exactly K rounds.
func (b *bench) cycle(ctx context.Context, en *unlearnEngine, rows []int, w *window) error {
	b.op(1)
	id := b.rec.begin("harness/cycle."+en.strategy, 0, en.f.e.Round())
	defer b.rec.end(id)
	t0 := time.Now()
	var err error
	call := b.rec.timed("unlearn.forget_call", id, en.f.e.Round(), func() { err = en.f.e.RequestSampleDeletion(0, rows) })
	if err != nil {
		return fmt.Errorf("%s: deleting %d rows: %w", en.strategy, len(rows), err)
	}
	before := len(w.rounds)
	if err := b.runRounds(ctx, en.f, unlearnK, w, id); err != nil {
		return fmt.Errorf("%s: %w", en.strategy, err)
	}
	en.cycles = append(en.cycles, time.Since(t0).Seconds())
	en.calls = append(en.calls, call)
	en.delRounds = append(en.delRounds, w.rounds[before])
	return nil
}

// plainRounds returns the measured rounds that did not follow a deletion.
func (en *unlearnEngine) plainRounds() []float64 {
	var out []float64
	for i, r := range en.window.rounds {
		if i%unlearnK != 0 {
			out = append(out, r)
		}
	}
	return out
}

// probe evaluates the engine's global model: test accuracy and, where a
// trigger-stamped test set is given, the attack success rate on it. It
// evaluates in batches of the training batch size: at the library's default
// of 256 rows the probes' scratch, not the engines, set this workload's
// peak_rss_mb (575 MB against 400 MB).
func (en *unlearnEngine) probe(test, triggered *goldfish.Dataset, target int) (acc, asr float64, err error) {
	net, err := en.f.e.GlobalNet()
	if err != nil {
		return 0, 0, err
	}
	acc = metrics.Accuracy(net, test, en.batch)
	if triggered != nil {
		asr = metrics.AttackSuccessRate(net, triggered, target, en.batch)
	}
	return acc, asr, nil
}

// recover deletes one more slice and counts the rounds until test accuracy
// is back at unlearnRecoverAcc (capped): the run-until-recovered number the
// fixed schedule deliberately does not use to size its work.
func (b *bench) recover(ctx context.Context, en *unlearnEngine, rows []int, test *goldfish.Dataset) (int, error) {
	id := b.rec.begin("harness/recover."+en.strategy, 0, en.f.e.Round())
	defer b.rec.end(id)
	if err := en.f.e.RequestSampleDeletion(0, rows); err != nil {
		return 0, err
	}
	limit := b.pick(unlearnRecoverCap, 1)
	for n := 1; n <= limit; n++ {
		if err := b.runRounds(ctx, en.f, 1, nil, id); err != nil {
			return 0, err
		}
		acc, err := en.f.e.TestAccuracy(test)
		if err != nil {
			return 0, err
		}
		if acc >= unlearnRecoverAcc {
			return n, nil
		}
	}
	return limit, nil
}
