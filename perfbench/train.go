package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The train workload: the paper's scheme at its 16×16 subdomain tile —
// a 64×64 grid on 4×4 ranks, NeighborPad, ADAM + MAPE.
const (
	trainGrid   = 64
	trainRanks  = 4 // per side
	trainSnaps  = 40
	trainSplit  = 24 // snapshots in the training portion
	trainEpochs = 5
	minTrains   = 3
)

func trainConfig(seed int64, epochs int) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.BatchSize = 4
	cfg.LR = 0.003
	cfg.Shuffle = true
	cfg.Seed = seed
	cfg.Model.Strategy = model.NeighborPad
	cfg.Model.Seed = seed*31 + 7
	return cfg
}

// trainRun is one measured Trainer.Train call.
type trainRun struct {
	rep    *core.TrainReport
	wall   time.Duration
	epochs [][]time.Duration // per rank: epoch end offsets from the call's start
}

// timedTrain runs one training and records, from the WithProgress
// events, when each rank finished each epoch. Ranks run in
// critical-path order (DESIGN.md §5): on the benchmark's one P the
// concurrent mode does the same work interleaved, and only this order
// times each rank-epoch uncontended.
func timedTrain(ctx context.Context, cfg core.TrainConfig, px, py int, ds *dataset.Dataset, onEpoch func()) (*trainRun, error) {
	tr := &trainRun{epochs: make([][]time.Duration, px*py)}
	var mu sync.Mutex
	var start time.Time
	trainer, err := core.NewTrainer(cfg, core.WithTopology(px, py), core.WithExecMode(core.CriticalPath),
		core.WithProgress(func(p core.Progress) {
			d := time.Since(start)
			mu.Lock()
			tr.epochs[p.Rank] = append(tr.epochs[p.Rank], d)
			mu.Unlock()
			if onEpoch != nil {
				onEpoch()
			}
		}))
	if err != nil {
		return nil, fmt.Errorf("building trainer: %w", err)
	}
	start = time.Now()
	tr.rep, err = trainer.Train(ctx, ds)
	tr.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return tr, nil
}

// rankEpochMs is each rank's per-epoch wall time, in ms. Ranks run one
// after another, so a rank's first epoch starts where the previous
// rank's last one ended.
func (t *trainRun) rankEpochMs() []float64 {
	var out []float64
	prev := time.Duration(0)
	for _, ends := range t.epochs {
		for _, e := range ends {
			out = append(out, ms(e-prev))
			prev = e
		}
	}
	return out
}

// imbalance is the slowest rank's busy time over the mean rank's.
func (t *trainRun) imbalance() float64 {
	var busy []float64
	mx := 0.0
	for _, rr := range t.rep.Parallel.Ranks {
		busy = append(busy, rr.Seconds)
		mx = max(mx, rr.Seconds)
	}
	return mx / mean(busy)
}

func sameHistory(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkTrain verifies one training's outputs: zero messages (the
// paper's communication-free claim), a finite loss history on every
// rank, and bit-identical histories across repeats of the same run.
func checkTrain(res *result, t, first *trainRun, epochs int) {
	par := t.rep.Parallel
	res.check(par != nil && par.TrainCommStats.MessagesSent == 0,
		"train: %d mpi messages during training, the scheme sends none", par.TrainCommStats.MessagesSent)
	for r, rr := range par.Ranks {
		res.check(len(rr.History) == epochs && finite(rr.History), "train: rank %d loss history %v is not finite", r, rr.History)
		if first != nil {
			res.check(sameHistory(rr.History, first.rep.Parallel.Ranks[r].History),
				"train: rank %d history differs between repeats of the same seeded run", r)
		}
	}
}

type trainSetup struct{ train, val *dataset.Dataset }

func runTrain(c runConfig, res *result) error {
	cfg := trainConfig(c.seed, trainEpochs)
	ctx := context.Background()
	// Set-up generates the data and warms up with a one-epoch training,
	// so the measured calls start with the heap and caches grown.
	st, setupS, err := timeSetup(3, func() (trainSetup, error) {
		ds, err := genDataset(trainGrid, trainSnaps, c.seed)
		if err != nil {
			return trainSetup{}, err
		}
		train, val, err := ds.Split(trainSplit)
		if err != nil {
			return trainSetup{}, err
		}
		_, err = timedTrain(ctx, trainConfig(c.seed, 1), trainRanks, trainRanks, train, nil)
		return trainSetup{train, val}, err
	}, nil)
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setupS
	pairs := st.train.Len() - 1

	window := c.seconds
	if c.trace {
		window /= 2 // the other half runs traced, for the overhead
	}
	measure := func(tr *tracer) ([]*trainRun, memSnap, memSnap, error) {
		var runs []*trainRun
		res.peak.reset()
		before := readMem()
		start := time.Now()
		for len(runs) < minTrains || time.Since(start) < window {
			id := tr.begin("core.Trainer.Train", "", -1)
			t, err := timedTrain(ctx, cfg, trainRanks, trainRanks, st.train, res.peak.sample)
			tr.end(id)
			if err != nil {
				return nil, before, before, err
			}
			var first *trainRun
			if len(runs) > 0 {
				first = runs[0]
			}
			res.attempted++
			checkTrain(res, t, first, cfg.Epochs)
			runs = append(runs, t)
		}
		return runs, before, readMem(), nil
	}
	runs, m0, m1, err := measure(nil)
	if err != nil {
		return err
	}
	var rates, epochMs, walls, imb []float64
	for _, t := range runs {
		rates = append(rates, float64(pairs*cfg.Epochs)/t.wall.Seconds())
		epochMs = append(epochMs, t.rankEpochMs()...)
		walls = append(walls, t.wall.Seconds())
		imb = append(imb, t.imbalance())
	}
	res.note("train_samples_per_s %.4f samples·epochs/s (median of %d Trainer.Train calls; %d pairs × %d epochs, %dx%d ranks on %dx%d)",
		median(rates), len(runs), pairs, cfg.Epochs, trainRanks, trainRanks, trainGrid, trainGrid)
	p90 := res.timing("train rank-epoch wall", epochMs)
	res.e2e["latency_ms"] = p90
	// Sustained rate: samples·epochs/s when every rank-epoch takes the
	// p90 time (see tailPct).
	res.e2e["throughput_per_s"] = float64(pairs) / (float64(trainRanks*trainRanks) * p90 / 1e3)
	res.note("train_comm_msgs %d (exact; the scheme sends none)", runs[0].rep.Parallel.TrainCommStats.MessagesSent)

	_, overall, err := core.EvaluateOneStep(runs[0].rep.Ensemble(), st.val)
	res.attempted++
	if err != nil {
		res.fail("train: EvaluateOneStep: %v", err)
	} else {
		res.check(!math.IsNaN(overall.MAPE) && !math.IsInf(overall.MAPE, 0), "train: held-out MAPE %v", overall.MAPE)
	}
	res.e2e["err_pct"] = overall.MAPE
	res.note("train_val_mape_pct %v %% (exact; held-out one-step MAPE, core.EvaluateOneStep over %d pairs)", overall.MAPE, st.val.Len()-1)
	if !c.trace {
		return nil
	}

	zeroLayers(res)
	tr := newTracer(wallClock{time.Now()}.Now)
	traced, _, _, err := measure(tr)
	if err != nil {
		return err
	}
	var tracedRates []float64
	for _, t := range traced {
		tracedRates = append(tracedRates, float64(pairs*cfg.Epochs)/t.wall.Seconds())
	}
	res.layer["trace.overhead_pct"] = 100 * (median(rates)/median(tracedRates) - 1)
	res.layer["core.train.rank_imbalance"] = median(imb)
	res.layer["runtime.alloc_mb_per_epoch"] = float64(m1.bytes-m0.bytes) / 1e6 / float64(len(runs)*cfg.Epochs)
	res.layer["runtime.gc_cpu_frac"] = gcFrac(m0, m1)

	peak, _ := gemmPeak(res)
	if err := eulerStep(res, trainGrid, c.seed); err != nil {
		return err
	}
	// Replay a corner and an interior rank's training through the
	// public layer functions; the loss histories must match the
	// trainer's bit for bit.
	nr := &netReplay{tr: tr, elemBytes: 8}
	var loss, opt, gather []float64
	layerMs := 0.0
	replayRanks := []int{0, trainRanks + 1}
	for _, r := range replayRanks {
		hist, lm, err := replayTrainRank(tr, nr, st.train, cfg, r, &loss, &opt, &gather)
		if err != nil {
			return err
		}
		layerMs += lm
		res.check(sameHistory(hist, runs[0].rep.Parallel.Ranks[r].History),
			"train: replay of rank %d diverges from Trainer.Train", r)
	}
	nr.report(res, peak)
	res.layer["loss.eval_ms"] = median(loss)
	res.layer["opt.step_ms"] = median(opt)
	res.layer["dataset.gather_ms"] = median(gather)
	// Layer time of all ranks against the Train call's wall time; the
	// rest is the trainer's own time.
	allRanks := layerMs / float64(len(replayRanks)) * float64(trainRanks*trainRanks)
	res.layer["core.train.self_frac"] = max(0, 1-allRanks/(1e3*median(walls)))
	res.spans = tr.snapshot()
	return nil
}

// replayTrainRank repeats the trainer's loop for one rank through the
// public functions — dataset.Gather, the layers' Forward/Backward,
// loss.Eval, opt.Step — with the trainer's per-rank seeds, and returns
// the loss history and the time spent in those calls.
func replayTrainRank(tr *tracer, nr *netReplay, ds *dataset.Dataset, cfg core.TrainConfig, rank int, lossMs, optMs, gatherMs *[]float64) ([]float64, float64, error) {
	p, err := decomp.NewPartition(ds.Grid.Nx, ds.Grid.Ny, trainRanks, trainRanks)
	if err != nil {
		return nil, 0, err
	}
	samples := dataset.WindowedSubdomainSamples(ds, p, rank, cfg.Model.Halo(), 1)
	mc := cfg.Model
	mc.Seed = cfg.Model.Seed + int64(rank)*7919
	net, err := model.Build(mc)
	if err != nil {
		return nil, 0, err
	}
	net.SetScratch(nn.NewArena())
	optimizer, err := core.NewOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, 0, err
	}
	lossFn, err := core.NewLoss(cfg.Loss)
	if err != nil {
		return nil, 0, err
	}
	rng := tensor.NewRNG(cfg.Seed + int64(rank)*104729)
	before := nr.totalMs()
	spent := 0.0
	var hist []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLoss, seen := 0.0, 0
		for _, idx := range dataset.MiniBatches(len(samples), cfg.BatchSize, rng) {
			var in, tg, dPred *tensor.Tensor
			d := tr.do("dataset.gather", -1, func() { in, tg = dataset.Gather(samples, idx) })
			*gatherMs = append(*gatherMs, ms(d))
			nn.ZeroGrads(net)
			pred := nr.forward(net, in, -1)
			var l float64
			d2 := tr.do("loss.eval", -1, func() { l, dPred = lossFn.Eval(pred, tg) })
			*lossMs = append(*lossMs, ms(d2))
			nr.backward(net, dPred, -1)
			d3 := tr.do("opt.step", -1, func() { optimizer.Step(net) })
			*optMs = append(*optMs, ms(d3))
			spent += ms(d + d2 + d3)
			epochLoss += l * float64(len(idx))
			seen += len(idx)
		}
		hist = append(hist, epochLoss/float64(seen))
	}
	return hist, spent + nr.totalMs() - before, nil
}
