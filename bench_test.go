// Package swim_bench is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (one benchmark per artifact — see
// DESIGN.md §4 for the index) plus the microbenchmarks backing the paper's
// cost claims. Each experiment benchmark prints the regenerated rows/series
// once, so `go test -bench=. -benchmem` doubles as the reproduction run.
//
// Allocation benchmarks: the BenchmarkEvalPlan* family measures the compiled
// evaluation engine (internal/eval), the only inference path, with
// -benchmem and must report 0 allocs/op in steady state — CI's
// allocation-regression step parses the benchmark output and fails the
// build if the plan path ever allocates. BenchmarkEvalParallel tracks
// plan-based evaluation under every kernel backend at 1 and NumCPU
// concurrent per-worker evaluators.
//
// Scale: by default the harness forces SWIM_FAST workloads so the whole
// suite completes on a laptop core in minutes. Set SWIM_FULL=1 (and
// optionally SWIM_MC) to run the paper-scale workloads used for
// EXPERIMENTS.md; the cmd/ binaries do the same with more control.
package swim_bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/experiments"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/obs"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/tensor"
	"swim/internal/train"
)

func TestMain(m *testing.M) {
	if os.Getenv("SWIM_FULL") == "" && os.Getenv("SWIM_FAST") == "" {
		os.Setenv("SWIM_FAST", "1")
	}
	os.Exit(m.Run())
}

var printOnce sync.Map

func printSeries(key string, f func()) {
	if _, done := printOnce.LoadOrStore(key, true); !done {
		f()
	}
}

// swimPolicy resolves the paper's policy from the program registry.
func swimPolicy(b *testing.B) program.Policy {
	b.Helper()
	pol, err := program.Lookup("swim")
	if err != nil {
		b.Fatal(err)
	}
	return pol
}

// --- experiment benchmarks: one per paper artifact -------------------------

// BenchmarkTable1 regenerates Table 1 (LeNet/MNIST: accuracy vs NWC for all
// four methods across the σ grid).
func BenchmarkTable1(b *testing.B) {
	w := experiments.LeNetMNIST()
	cfg := experiments.DefaultSweep()
	sigmas := experiments.SigmaGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(w, sigmas, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printSeries("table1", func() {
			experiments.PrintTable1(os.Stdout, w, sigmas, cfg, res)
			sw := res[experiments.SigmaTypical]["swim"]
			for _, m := range []string{"magnitude", "random", "insitu"} {
				s := experiments.SpeedupAt(sw, res[experiments.SigmaTypical][m], cfg.NWCs, 0.1)
				fmt.Printf("speedup vs %-10s at NWC=0.1: %.0fx\n", m, s)
			}
		})
	}
}

// BenchmarkFig1Correlation regenerates Fig. 1a/1b (accuracy drop vs weight
// magnitude and vs second derivative).
func BenchmarkFig1Correlation(b *testing.B) {
	w := experiments.LeNetMNIST()
	cfg := experiments.DefaultFig1()
	if os.Getenv("SWIM_FULL") == "" {
		cfg.NumWeights, cfg.Repeats, cfg.EvalN = 30, 3, 150
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printSeries("fig1", func() {
			fmt.Printf("Fig1: Pearson(|w|, drop) = %+.3f  Pearson(d2f/dw2, drop) = %+.3f  Spearman = %+.3f\n",
				res.PearsonMagnitude, res.PearsonHess, res.SpearmanHess)
		})
	}
}

func benchFig2(b *testing.B, key string, w *experiments.Workload) {
	cfg := experiments.DefaultSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printSeries(key, func() { experiments.PrintFig2(os.Stdout, w, cfg, res) })
	}
}

// BenchmarkFig2ConvNet regenerates Fig. 2a (ConvNet / CIFAR-10).
func BenchmarkFig2ConvNet(b *testing.B) { benchFig2(b, "fig2a", experiments.ConvNetCIFAR()) }

// BenchmarkFig2ResNetCIFAR regenerates Fig. 2b (ResNet-18 / CIFAR-10).
func BenchmarkFig2ResNetCIFAR(b *testing.B) { benchFig2(b, "fig2b", experiments.ResNetCIFAR()) }

// BenchmarkFig2ResNetTiny regenerates Fig. 2c (ResNet-18 / Tiny ImageNet).
func BenchmarkFig2ResNetTiny(b *testing.B) { benchFig2(b, "fig2c", experiments.ResNetTiny()) }

// BenchmarkDeviceCalibration reproduces the §4.1 anchors (~10 write cycles
// per weight, post-write-verify residual σ ≈ 0.03).
func BenchmarkDeviceCalibration(b *testing.B) {
	m := device.Default(4, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Calibrate(20000, rng.New(uint64(i+1)))
		printSeries("cal", func() {
			fmt.Printf("calibration: %.2f cycles/weight, residual sigma %.4f (paper: ~10, ~0.03)\n",
				s.MeanCycles, s.ResidualStd)
		})
	}
}

// --- ablation benchmarks (abl-p, abl-tie, abl-k, abl-approx) ----------------

func BenchmarkAblateGranularity(b *testing.B) {
	w := experiments.LeNetMNIST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateGranularity(w, swimPolicy(b), experiments.SigmaHigh, 1.0, []float64{0.05, 0.25}, experiments.ReadScenario{}, 3, 40)
		if err != nil {
			b.Fatal(err)
		}
		printSeries("abl-p", func() { experiments.PrintGranularity(os.Stdout, w, 1.0, rows) })
	}
}

func BenchmarkAblateTieBreak(b *testing.B) {
	w := experiments.LeNetMNIST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateTieBreak(w, experiments.SigmaHigh, 0.1, experiments.ReadScenario{}, 3, 41)
		if err != nil {
			b.Fatal(err)
		}
		printSeries("abl-tie", func() {
			fmt.Printf("tie-break ablation: with %s / without %s (%.1f%% tied)\n",
				res.WithTie, res.WithoutTie, 100*res.TiedFraction)
		})
	}
}

func BenchmarkAblateDeviceBits(b *testing.B) {
	w := experiments.LeNetMNIST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateDeviceBits(w, swimPolicy(b), experiments.SigmaTypical, 0.1, []int{2, 4}, experiments.ReadScenario{}, 3, 42)
		if err != nil {
			b.Fatal(err)
		}
		printSeries("abl-k", func() {
			experiments.PrintKBits(os.Stdout, w, "swim", experiments.SigmaTypical, 0.1, rows)
		})
	}
}

func BenchmarkHessianQuality(b *testing.B) {
	w := experiments.LeNetMNIST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rho := experiments.HessianQuality(w, 10, 43)
		printSeries("abl-approx", func() {
			fmt.Printf("diagonal-approximation ablation: Spearman(analytic, FD) = %.3f\n", rho)
		})
	}
}

// --- Monte-Carlo engine microbenchmarks -------------------------------------
//
// BenchmarkMCRun and BenchmarkMCRunSeries track the parallel engine's
// speedup over its serial path (workers=1) at 1/2/4/8 workers, through
// mc.MapCtx with a scalar and a four-point trial body. The trial body
// mirrors a real Monte-Carlo trial in miniature — a few thousand deterministic
// RNG draws — so the numbers isolate engine scheduling from workload noise.
// On a 4-core runner workers=4 is expected to be ≥ 2× workers=1; on fewer
// cores the extra worker counts simply converge to the core count.

func mcTrialWork(r *rng.Source) float64 {
	s := 0.0
	for i := 0; i < 4000; i++ {
		s += r.Norm()
	}
	return s / 4000
}

func BenchmarkMCRun(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mc.MapCtx(context.Background(), 1, 256, workers, func(_ int, r *rng.Source) float64 { return mcTrialWork(r) }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMCRunSeries(b *testing.B) {
	trial := func(_ int, r *rng.Source) []float64 {
		return []float64{mcTrialWork(r), mcTrialWork(r), mcTrialWork(r), mcTrialWork(r)}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mc.MapCtx(context.Background(), 1, 64, workers, trial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCSweepWorkers tracks the speedup on the real hot path: a full
// device-programming sweep (the unit behind every Table 1 / Fig. 2 number)
// at 1 and NumCPU workers.
func BenchmarkMCSweepWorkers(b *testing.B) {
	w := experiments.LeNetMNIST()
	cfg := experiments.SweepConfig{NWCs: []float64{0, 0.5}, Trials: 8, Seed: 77}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mc.SetWorkers(workers)
			defer mc.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Sweep(w, experiments.SigmaHigh, "swim", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- microbenchmarks backing the paper's cost claims ------------------------

// BenchmarkGradientPass and BenchmarkHessianPass substantiate §3.3's claim
// that the second-derivative pass "takes approximately the same amount of
// time and memory as conventional gradient computation". Both run through
// caller scratch (benchPass), so CI holds them at 0 allocs/op.
func BenchmarkGradientPass(b *testing.B) {
	net := models.LeNet(10, 4, rng.New(1))
	x, y := lenetBatch(32)
	benchPass(b, func(s *tensor.Arena) {
		net.ZeroGrad()
		net.LossGrad(x, y, false, s)
	})
}

func BenchmarkHessianPass(b *testing.B) {
	net := models.LeNet(10, 4, rng.New(1))
	x, y := lenetBatch(32)
	benchPass(b, func(s *tensor.Arena) {
		net.ZeroHess()
		net.AccumulateHessian(x, y, s)
	})
}

// benchPass times pass on scratch it resets before every run, after one
// untimed run that grows the scratch to its size.
func benchPass(b *testing.B, pass func(s *tensor.Arena)) {
	s := tensor.NewArena()
	pass(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		pass(s)
	}
}

// BenchmarkResNetGradientPass is the gradient pass on ResNet-18 (width 8,
// batch 32, training mode). A training-mode batch norm's backward pass
// leaves no exact zeros in its convs' output derivatives, so this times the
// dense side of the convolution backward's density switch, where LeNet's
// max-pooled derivatives time the sparse walk.
func BenchmarkResNetGradientPass(b *testing.B) {
	net := models.ResNet18(10, 8, 6, rng.New(1))
	ds := data.CIFARLike(32, 32, 42)
	benchPass(b, func(s *tensor.Arena) {
		net.ZeroGrad()
		net.LossGrad(ds.TrainX, ds.TrainY, true, s)
	})
}

// BenchmarkResNetHessianPass is the Hessian-diagonal pass on the same
// ResNet-18 and batch. Batch norm runs on frozen statistics here, a
// per-channel scale that passes the ReLU and quantizer zeros through, so
// its convs' output derivatives are about half zero: the middle of the
// density switch's range.
func BenchmarkResNetHessianPass(b *testing.B) {
	net := models.ResNet18(10, 8, 6, rng.New(1))
	ds := data.CIFARLike(32, 32, 42)
	benchPass(b, func(s *tensor.Arena) {
		net.ZeroHess()
		net.AccumulateHessian(ds.TrainX, ds.TrainY, s)
	})
}

// BenchmarkInSituStep times one in-situ training step (batch 32) on the
// mapped, trained LeNet: a forward and gradient pass under the programmed
// weights plus one noisy write per mapped weight, the unit of table1's
// insitu cells. One untimed step grows the mapped network's arena, so the
// timed steps allocate nothing.
func BenchmarkInSituStep(b *testing.B) {
	w := experiments.LeNetMNIST()
	dm := w.DeviceFor(experiments.SigmaTypical)
	mp, err := mapping.New(w.Net, dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	cfg := swim.DefaultInSitu()
	r := rng.New(4)
	start := swim.InSituStep(mp, w.DS.TrainX, w.DS.TrainY, 0, cfg, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start = swim.InSituStep(mp, w.DS.TrainX, w.DS.TrainY, start, cfg, r)
	}
}

// BenchmarkColdBuild times the cold LeNet build every run, daemon start and
// benchmark workload pays before its first trial: experiments.LeNetMNIST at
// its SWIM_FAST sizes, built outside the registry cache (data, three QAT
// epochs, clean evaluation and the sensitivity pass), as
// TestColdBuildBitsPinned in internal/nn pins it.
func BenchmarkColdBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds := data.MNISTLike(600, 300, 1)
		net := models.LeNet(10, 4, rng.New(2))
		cfg := train.DefaultConfig()
		cfg.Epochs, cfg.LRDecayEvery, cfg.QATBits = 3, 1, 4
		train.SGD(net, ds, cfg, rng.New(3))
		train.Evaluate(net, ds.TestX, ds.TestY, 64)
		cx, cy := data.Subset(ds.TrainX, ds.TrainY, 512)
		swim.Sensitivity(net, cx, cy, 64)
	}
}

// BenchmarkForwardLeNet measures the training-path forward pass in
// evaluation mode, on caller scratch; accuracy measurements run compiled
// plans instead (BenchmarkEvalPlanLeNet).
func BenchmarkForwardLeNet(b *testing.B) {
	net := models.LeNet(10, 4, rng.New(1))
	x, _ := lenetBatch(32)
	benchPass(b, func(s *tensor.Arena) { net.Forward(x, false, s) })
}

// --- compiled evaluation engine ---------------------------------------------
//
// BenchmarkEvalPlan* runs full-dataset accuracy through the compiled
// zero-allocation engine (internal/eval); the allocation-regression CI step
// pins its steady state at 0 allocs/op.

// obsPlanObserver mirrors the serving daemon's metrics wiring: per-backend
// compiled-plan latency observed into an obs histogram vector.
type obsPlanObserver struct{ vec *obs.HistogramVec }

func (o *obsPlanObserver) ObservePlan(backend string, seconds float64) {
	o.vec.With(backend).Observe(seconds)
}

// instrumentEvalPlan installs an obs-backed plan observer for the duration of
// one benchmark, so the BenchmarkEvalPlan* family measures the hot path the
// way swim-serve actually runs it — observability on. The 0 allocs/op CI gate
// therefore also pins the instrumentation itself (warm-up before the timed
// loop creates each backend's child histogram; steady-state observation must
// never allocate).
func instrumentEvalPlan(b *testing.B) {
	b.Helper()
	reg := obs.NewRegistry()
	eval.SetPlanObserver(&obsPlanObserver{
		vec: reg.HistogramVec("bench_eval_plan_seconds", "compiled-plan batch seconds by backend", "backend", nil),
	})
	b.Cleanup(func() { eval.SetPlanObserver(nil) })
}

// evalWorkload builds a (network, eval set) pair for the eval benchmarks.
func evalWorkload(model string) (*nn.Network, *tensor.Tensor, []int) {
	switch model {
	case "lenet":
		ds := data.MNISTLike(64, 64, 42)
		return models.LeNet(10, 4, rng.New(1)), ds.TrainX, ds.TrainY
	case "resnet":
		ds := data.CIFARLike(64, 64, 42)
		return models.ResNet18(10, 4, 6, rng.New(1)), ds.TrainX, ds.TrainY
	}
	panic("unknown eval workload " + model)
}

func benchEvalPlan(b *testing.B, model string) {
	instrumentEvalPlan(b)
	net, x, y := evalWorkload(model)
	ev := eval.NewEvaluator(net, nil)
	if _, err := ev.Accuracy(x, y, 32); err != nil { // compile + warm up plans
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Accuracy(x, y, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalPlanLeNet(b *testing.B)  { benchEvalPlan(b, "lenet") }
func BenchmarkEvalPlanResNet(b *testing.B) { benchEvalPlan(b, "resnet") }

// BenchmarkEvalPlanKernels measures the same full-dataset plan evaluation
// under every registered kernel backend (internal/kernel): scalar is the
// bit-identical baseline, blocked re-tiles the matmuls for cache locality on
// one core, and parallel fans batch rows across the shared worker pool. The
// sub-benchmark names feed scripts/bench_kernels.sh, which gates the
// blocked-vs-scalar speedup in CI, and the BenchmarkEvalPlan prefix keeps
// every backend under the 0 allocs/op gate.
func BenchmarkEvalPlanKernels(b *testing.B) {
	instrumentEvalPlan(b)
	for _, model := range []string{"lenet", "resnet"} {
		net, x, y := evalWorkload(model)
		for _, spec := range []string{"scalar", "blocked", "parallel"} {
			k, err := kernel.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			ev := eval.NewEvaluatorKernel(net, nil, k)
			if _, err := ev.Accuracy(x, y, 32); err != nil { // compile + warm up plans
				b.Fatal(err)
			}
			b.Run(model+"/"+spec, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ev.Accuracy(x, y, 32); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// costAccountingSink keeps the cost-accounting reads observable so the
// compiler cannot elide them from BenchmarkEvalPlanCostAccounting.
var costAccountingSink float64

// mappedLeNet programs a LeNet onto devices for the Mapped benchmarks and
// warms its evaluation up: plans compiled, binding made, arena grown.
func mappedLeNet(b *testing.B, x *tensor.Tensor, y []int) *mapping.Mapped {
	b.Helper()
	dm := device.Default(4, 0.5)
	mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	mp.SetEvalArena(tensor.NewArena())
	mp.Accuracy(x, y, 32)
	return mp
}

// BenchmarkEvalPlanCostAccounting measures the eval hot path exactly as the
// cost tier drives it: a device-programmed mapping evaluated through the
// compiled plan with the write-cycle aggregates (CyclesUsed, NWC) read back
// each iteration — the same reads a grid trial performs per point to feed
// cost.Report. Each iteration rewrites one conv1 weight (a sign flip), so
// every measurement is a full pass rather than a remembered count. It
// shares the BenchmarkEvalPlan* 0 allocs/op CI gate: cost accounting must
// never put allocations back on the hot path.
func BenchmarkEvalPlanCostAccounting(b *testing.B) {
	instrumentEvalPlan(b)
	ds := data.MNISTLike(64, 64, 42)
	mp := mappedLeNet(b, ds.TrainX, ds.TrainY)
	conv1 := mp.Net.MappedParams()[0].Data.Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv1[0] = -conv1[0]
		costAccountingSink = mp.Accuracy(ds.TrainX, ds.TrainY, 32) + mp.CyclesUsed + mp.NWC()
	}
}

// BenchmarkEvalPlanResume measures Mapped.Accuracy's re-measurements of a
// programmed LeNet, each kind Algorithm 1 makes: unchanged re-measures a
// network nothing touched (the remembered count), fc3 rewrites one fc3
// weight per op (a pass resumed at fc3), and conv1 rewrites one conv1
// weight per op (a full pass). It shares the BenchmarkEvalPlan* 0 allocs/op
// CI gate.
func BenchmarkEvalPlanResume(b *testing.B) {
	instrumentEvalPlan(b)
	ds := data.MNISTLike(64, 64, 42)
	for _, tc := range []struct {
		name  string
		param int // index into MappedParams of the rewritten weight; -1 none
	}{{"unchanged", -1}, {"fc3", 4}, {"conv1", 0}} {
		mp := mappedLeNet(b, ds.TrainX, ds.TrainY)
		var w []float64
		if tc.param >= 0 {
			w = mp.Net.MappedParams()[tc.param].Data.Data
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w != nil {
					w[0] = -w[0]
				}
				costAccountingSink = mp.Accuracy(ds.TrainX, ds.TrainY, 32)
			}
		})
	}
}

// BenchmarkEvalParallel measures plan-based evaluation under the pipeline's
// concurrency model: W workers, each owning one network clone, one evaluator
// and one scratch arena (plans are not goroutine-safe; arenas are
// per-worker), under every registered kernel backend. workers=1 leaves
// cores idle, which is where the parallel backend's batch-row fan-out can
// help; workers=NumCPU keeps every core busy, as Monte-Carlo runs do, so
// its pool competes with the other evaluators for the same cores.
func BenchmarkEvalParallel(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, model := range []string{"lenet", "resnet"} {
		master, x, y := evalWorkload(model)
		for _, spec := range kernel.Registered() {
			k, err := kernel.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range workerCounts {
				benchEvalWorkers(b, fmt.Sprintf("%s/%s/workers=%d", model, spec, workers), master, x, y, k, workers)
			}
		}
	}
}

// benchEvalWorkers runs one BenchmarkEvalParallel cell: workers concurrent
// full-dataset evaluations per op, each on its own clone and evaluator.
func benchEvalWorkers(b *testing.B, name string, master *nn.Network, x *tensor.Tensor, y []int, k kernel.Backend, workers int) {
	evs := make([]*eval.Evaluator, workers)
	for w := range evs {
		evs[w] = eval.NewEvaluatorKernel(master.Clone(), nil, k)
		if _, err := evs[w].Accuracy(x, y, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if _, err := evs[w].Accuracy(x, y, 32); err != nil {
						panic(err)
					}
				}(w)
			}
			wg.Wait()
		}
	})
}

// BenchmarkMapNetwork measures programming a full LeNet onto devices.
func BenchmarkMapNetwork(b *testing.B) {
	net := models.LeNet(10, 4, rng.New(1))
	dm := device.Default(4, 0.5)
	table := dm.CycleTable(50, rng.New(2))
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.New(net, dm, table, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialSetup measures one Monte-Carlo trial's set-up as the
// pipeline performs it — policy state, programming, nonideality and
// calibration instances — on LeNet read one day after programming under
// drift:nu=0.1 with gainoffset calibration. The trials of each policy share
// one Env, as a run's trials do: swim's once-per-run ranking happens before
// the timer, random draws a permutation per trial.
func BenchmarkTrialSetup(b *testing.B) {
	ds := data.MNISTLike(128, 64, 42)
	net := models.LeNet(10, 4, rng.New(1))
	dm := device.Default(4, 0.5)
	table := dm.CycleTable(50, rng.New(2))
	drift, err := nonideal.Parse("drift:nu=0.1")
	if err != nil {
		b.Fatal(err)
	}
	cal, err := calib.Parse("gainoffset")
	if err != nil {
		b.Fatal(err)
	}
	hess := swim.Sensitivity(net.Clone(), ds.TrainX, ds.TrainY, 64)
	weights := swim.FlatWeights(net)
	for _, name := range []string{"swim", "random"} {
		pol, err := program.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		env := &program.Env{Net: net, Device: dm, Hess: hess, Weights: weights}
		if _, err := pol.NewTrial(env, rng.New(3)); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			r := rng.New(4)
			for i := 0; i < b.N; i++ {
				tr := r.Split()
				if _, err := pol.NewTrial(env, tr); err != nil {
					b.Fatal(err)
				}
				mp, err := mapping.New(net, dm, table, tr)
				if err != nil {
					b.Fatal(err)
				}
				mp.SetNonideal(nonideal.NewTrials([]nonideal.Nonideality{drift}, dm, tr.Split()), 86400)
				mp.SetCalibration(cal.NewTrial(tr.Split()))
			}
		})
	}
}

// BenchmarkScenarioShard is a serve-coord worker's unit of work: one
// one-trial shard of a LeNet scenario job at σ 0.5 under drift:nu=0.1 read
// one day after programming, NWCs {0, 0.1, 0.3}, 64 evaluation samples, one
// worker. swim+noverify runs both cells as one group, which shares each
// trial's set-up and first pass; scripts/bench_group.sh gates its cost
// against swim alone.
func BenchmarkScenarioShard(b *testing.B) {
	b.Setenv("SWIM_EVAL", "64")
	w := experiments.LeNetMNIST()
	scenarios, err := experiments.ParseScenarios("drift:nu=0.1")
	if err != nil {
		b.Fatal(err)
	}
	for _, policies := range [][]string{{"swim"}, {"swim", "noverify"}} {
		b.Run(strings.Join(policies, "+"), func(b *testing.B) {
			cfg := experiments.ScenarioConfig{
				NWCs: []float64{0, 0.1, 0.3}, Times: []float64{86400}, Policies: policies,
				Trials: 4, Seed: 1001, EvalBatch: 64,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i % cfg.Trials
				if _, err := experiments.ScenarioShards(context.Background(), w, experiments.SigmaTypical,
					scenarios, cfg, lo, lo+1, program.WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// comparatorRank is the selectors' ranking before the radix passes, the
// reference BenchmarkRank times: a stable sort by primary descending, then
// secondary descending (nil: none).
func comparatorRank(primary, secondary []float64) []int {
	idx := make([]int, len(primary))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := primary[idx[a]], primary[idx[b]]
		if pa != pb || secondary == nil {
			return pa > pb
		}
		return secondary[idx[a]] > secondary[idx[b]]
	})
	return idx
}

// BenchmarkRank times the swim and magnitude selectors' ranking of LeNet's
// weights, and the stable comparator sort they replaced, on the same
// vectors.
func BenchmarkRank(b *testing.B) {
	w := experiments.LeNetMNIST()
	cases := []struct {
		name  string
		order func() []int
	}{
		{"swim", func() []int { return swim.NewSWIMSelector(w.Hess, w.Weights).Order(nil) }},
		{"magnitude", func() []int { return swim.NewMagnitudeSelector(w.Weights).Order(nil) }},
		{"swim-comparator", func() []int { return comparatorRank(w.Hess, w.Weights) }},
		{"magnitude-comparator", func() []int { return comparatorRank(w.Weights, nil) }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.order()
			}
		})
	}
}

// BenchmarkMatMul measures the default backend's matmul (256x256x256).
func BenchmarkMatMul(b *testing.B) {
	r := rng.New(1)
	a := tensor.New(256, 256)
	c := tensor.New(256, 256)
	out := tensor.New(256, 256)
	for i := range a.Data {
		a.Data[i] = r.Gauss(0, 1)
		c.Data[i] = r.Gauss(0, 1)
	}
	k := kernel.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MatMul(out, a, c, false)
	}
	b.SetBytes(int64(8 * 256 * 256))
}

func lenetBatch(n int) (*tensor.Tensor, []int) {
	ds := data.MNISTLike(n, n, 42)
	return ds.TrainX, ds.TrainY
}
