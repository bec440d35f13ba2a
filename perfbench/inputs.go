package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/euler"
	"repro/internal/tensor"
)

// newRNG returns the benchmark's generator for one input stream; the
// stream constant keeps streams independent under one seed.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// pulseConfig is the paper's Gaussian pulse on an n×n grid with a
// seeded amplitude, width and centre. The ranges stay close to the
// paper's case (amplitude 0.5, half-width 0.3, centre P(0,0)) so every
// seed poses a problem of the same difficulty.
func pulseConfig(n int, seed int64) euler.Config {
	rng := newRNG(seed, 1)
	cfg := euler.DefaultConfig(n)
	cfg.Amplitude = 0.5 * (0.95 + 0.1*rng.Float64())
	cfg.HalfWidth = 0.3 * (0.95 + 0.1*rng.Float64())
	cfg.CenterX = 0.05 * (2*rng.Float64() - 1)
	cfg.CenterY = 0.05 * (2*rng.Float64() - 1)
	return cfg
}

// genDataset simulates the seeded pulse for snaps snapshots and
// min-max normalizes it into [0.1, 0.9], the range the paper's MAPE
// loss needs.
func genDataset(n, snaps int, seed int64) (*dataset.Dataset, error) {
	ds, err := dataset.Generate(dataset.GenConfig{Euler: pulseConfig(n, seed), NumSnapshots: snaps})
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	norm, err := dataset.FitMinMax(ds, 0.1, 0.9)
	if err != nil {
		return nil, fmt.Errorf("normalizing dataset: %w", err)
	}
	return dataset.NormalizeDataset(ds, norm), nil
}

// bitsEqual reports whether two tensors hold bit-identical values.
func bitsEqual(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// maxRelDiff is the worst per-element |got−want|/(1+|want|), the
// measure the f32 error budget is stated in.
func maxRelDiff(got, want *tensor.Tensor) float64 {
	gd, wd := got.Data(), want.Data()
	worst := 0.0
	for i := range gd {
		worst = max(worst, math.Abs(gd[i]-wd[i])/(1+math.Abs(wd[i])))
	}
	return worst
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}
