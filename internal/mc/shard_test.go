package mc

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"swim/internal/rng"
	"swim/internal/stat"
)

// randomPartition cuts [0, n) into contiguous non-empty ranges at random
// boundaries (r drives the cut count and positions).
func randomPartition(r *rand.Rand, n int) [][2]int {
	cuts := map[int]bool{0: true, n: true}
	for i := 0; i < r.Intn(n); i++ {
		cuts[1+r.Intn(n-1)] = true
	}
	var bounds []int
	for b := range cuts {
		bounds = append(bounds, b)
	}
	// insertion sort: tiny slices, no extra imports
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	var parts [][2]int
	for i := 1; i < len(bounds); i++ {
		parts = append(parts, [2]int{bounds[i-1], bounds[i]})
	}
	return parts
}

// The distributed-execution contract at the engine layer: the rows of ANY
// contiguous partition of the trial space, computed at any worker counts,
// fold back into the exact bits of an independent serial reduction — one
// Welford per trial fed with Add, merged into the aggregate in trial order.
func TestRunSeriesShardPartitionBitIdentity(t *testing.T) {
	const seed, trials, points = 91, 57, 3
	f := func(r *rng.Source) []float64 {
		return []float64{r.Float64(), r.Gauss(2, 3), r.Norm() * r.Norm()}
	}
	serial, err := MapCtx(context.Background(), seed, trials, 1, func(_ int, r *rng.Source) []float64 { return f(r) })
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*stat.Welford, points)
	for i := range want {
		want[i] = &stat.Welford{}
		for _, row := range serial {
			var one stat.Welford
			one.Add(row[i])
			want[i].Merge(&one)
		}
	}

	r := rand.New(rand.NewSource(7))
	for round := 0; round < 5; round++ {
		parts := randomPartition(r, trials)
		rows := make([][]float64, 0, trials)
		for i, p := range parts {
			workers := 1
			if i%2 == 1 {
				workers = runtime.NumCPU()
			}
			part, err := RunSeriesShard(context.Background(), seed, trials, p[0], p[1], points, workers, nil, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(part) != p[1]-p[0] {
				t.Fatalf("round %d: shard [%d,%d) returned %d rows", round, p[0], p[1], len(part))
			}
			rows = append(rows, part...)
		}
		got, err := FoldSeriesRows(points, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Mean() != want[i].Mean() || got[i].Std() != want[i].Std() || got[i].N() != want[i].N() {
				t.Fatalf("round %d (%d parts) point %d: (%v, %v, n=%d) != single-node (%v, %v, n=%d)",
					round, len(parts), i, got[i].Mean(), got[i].Std(), got[i].N(),
					want[i].Mean(), want[i].Std(), want[i].N())
			}
		}
	}
}

// Recomputing the same range must reproduce the same rows bit for bit —
// what makes coordinator-side retry/reassignment safe.
func TestRunSeriesShardRecomputeBitIdentity(t *testing.T) {
	f := func(r *rng.Source) []float64 { return []float64{r.Gauss(0, 1), r.Float64()} }
	a, err := RunSeriesShard(context.Background(), 5, 40, 11, 29, 2, 1, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeriesShard(context.Background(), 5, 40, 11, 29, 2, runtime.NumCPU(), nil, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("row %d value %d: %v != %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestRunSeriesShardValidation(t *testing.T) {
	f := func(r *rng.Source) []float64 { return []float64{1} }
	for _, c := range [][2]int{{-1, 3}, {4, 2}, {0, 11}} {
		if _, err := RunSeriesShard(context.Background(), 1, 10, c[0], c[1], 1, 1, nil, f); err == nil {
			t.Errorf("range [%d,%d) of 10 trials accepted", c[0], c[1])
		}
	}
	// The empty range is a degenerate but valid shard: zero rows.
	if rows, err := RunSeriesShard(context.Background(), 1, 10, 3, 3, 1, 1, nil, f); err != nil || len(rows) != 0 {
		t.Errorf("empty range: rows=%d err=%v", len(rows), err)
	}
	if _, err := FoldSeriesRows(2, [][]float64{{1, 2}, {3}}); err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Errorf("short row accepted: %v", err)
	}
}
