// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (§4), plus the ablations DESIGN.md calls
// out. Each experiment is exposed both as a function (used by the cmd/
// binaries and by bench_test.go) and prints in a layout mirroring the paper.
//
// Sigma rescaling: the synthetic datasets (see package data) yield networks
// that are more robust to weight noise than their real-data counterparts, so
// the device-σ grid is scaled ×5 relative to the paper (σ_paper {0.1, 0.15,
// 0.2} → σ_here {0.5, 0.75, 1.0}) to land the NWC = 0 accuracy drops in the
// same range the paper reports. EXPERIMENTS.md discusses the substitution.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/mc"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/serialize"
	"swim/internal/swim"
	"swim/internal/train"
)

// Workload bundles a trained quantized model, its dataset, and the
// precomputed SWIM sensitivity data — everything the experiment drivers
// consume. Workloads are built once per process and cached.
//
// A built Workload is immutable: Monte-Carlo trial bodies running on the
// parallel mc engine may read it concurrently (Net only through TrialNet or
// mapping.New, which clone), but must never write to Net, Hess or Weights.
// What it derives from those fields on first use — the pipelines' ranking
// inputs with their rankings, and the scenario sweeps' cycle tables — it
// keeps for its lifetime, so a daemon's shards share them.
type Workload struct {
	Name       string
	Net        *nn.Network
	DS         *data.Dataset
	WeightBits int
	CleanAcc   float64 // accuracy without device variation (%)
	Hess       []float64
	Weights    []float64
	// FromState reports that the learned state was restored from the
	// configured state directory (SetStateDir) instead of trained in this
	// process — the train-once, serve-many path.
	FromState bool

	sensOnce sync.Once
	sens     *program.Sensitivity // Hess and Weights, checked once
	sensErr  error
	tables   tableMemo
}

// Sigma values used throughout (×5 the paper's grid; see package comment).
const (
	SigmaTypical = 0.5  // paper's σ = 0.1
	SigmaMid     = 0.75 // paper's σ = 0.15
	SigmaHigh    = 1.0  // paper's σ = 0.2
)

// SigmaGrid is the Table 1 σ sweep.
func SigmaGrid() []float64 { return []float64{SigmaTypical, SigmaMid, SigmaHigh} }

var (
	registryMu sync.Mutex
	registry   = map[string]*Workload{}
)

func getOrBuild(name string, build func() *Workload) *Workload {
	registryMu.Lock()
	defer registryMu.Unlock()
	if w, ok := registry[name]; ok {
		return w
	}
	w := build()
	registry[name] = w
	return w
}

// buildWorkload trains a model and computes its sensitivity data. When a
// state directory is configured (SetStateDir) and holds a state dict for
// name, the learned state is restored instead of trained — and a freshly
// trained state is persisted there for the next process.
func buildWorkload(name string, ds *data.Dataset, net *nn.Network, weightBits int,
	cfg train.Config, calN int, seed uint64) *Workload {

	r := rng.New(seed)
	cfg.QATBits = weightBits
	fromState := false
	if restored := restoreState(name, net); restored != nil {
		net, fromState = restored, true
	} else {
		train.SGD(net, ds, cfg, r)
		persistState(name, net)
	}
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	cx, cy := data.Subset(ds.TrainX, ds.TrainY, calN)
	hess := swim.Sensitivity(net, cx, cy, 64)
	return &Workload{
		Name: name, Net: net, DS: ds, WeightBits: weightBits,
		CleanAcc: clean, Hess: hess, Weights: swim.FlatWeights(net),
		FromState: fromState,
	}
}

// LeNetMNIST returns the Table 1 / Fig. 1 workload: 4-bit LeNet on the
// MNIST-like task.
func LeNetMNIST() *Workload {
	return getOrBuild("lenet-mnist", func() *Workload {
		trainN, testN, epochs := 2000, 1000, 8
		if mc.Fast() {
			trainN, testN, epochs = 600, 300, 3
		}
		ds := data.MNISTLike(trainN, testN, 1)
		r := rng.New(2)
		net := models.LeNet(10, 4, r)
		cfg := train.DefaultConfig()
		cfg.Epochs = epochs
		cfg.LRDecayEvery = epochs / 2
		return buildWorkload("lenet-mnist", ds, net, 4, cfg, 512, 3)
	})
}

// ConvNetCIFAR returns the Fig. 2a workload: 6-bit ConvNet on the CIFAR-like
// task (width-slimmed; see DESIGN.md §3).
func ConvNetCIFAR() *Workload {
	return getOrBuild("convnet-cifar", func() *Workload {
		trainN, testN, epochs, width := 1500, 600, 8, 8
		if mc.Fast() {
			trainN, testN, epochs, width = 400, 200, 3, 4
		}
		ds := data.CIFARLike(trainN, testN, 11)
		r := rng.New(12)
		net := models.ConvNet(10, width, 6, r)
		cfg := train.DefaultConfig()
		cfg.Epochs = epochs
		cfg.LRDecayEvery = epochs / 2
		return buildWorkload("convnet-cifar", ds, net, 6, cfg, 384, 13)
	})
}

// ResNetCIFAR returns the Fig. 2b workload: 6-bit ResNet-18 on the
// CIFAR-like task.
func ResNetCIFAR() *Workload {
	return getOrBuild("resnet-cifar", func() *Workload {
		trainN, testN, epochs, width := 1200, 500, 8, 8
		if mc.Fast() {
			trainN, testN, epochs, width = 300, 150, 3, 4
		}
		ds := data.CIFARLike(trainN, testN, 21)
		r := rng.New(22)
		net := models.ResNet18(10, width, 6, r)
		cfg := train.DefaultConfig()
		cfg.Epochs = epochs
		cfg.LRDecayEvery = epochs / 2
		return buildWorkload("resnet-cifar", ds, net, 6, cfg, 320, 23)
	})
}

// ResNetTiny returns the Fig. 2c workload: 6-bit ResNet-18 on the
// TinyImageNet-like task (40 classes). The panel's point is task hardness
// (4× the classes of panel b), not model bulk, so the width stays modest to
// keep the single-core sweep tractable.
func ResNetTiny() *Workload {
	return getOrBuild("resnet-tiny", func() *Workload {
		trainN, testN, epochs, width := 1200, 480, 7, 6
		if mc.Fast() {
			trainN, testN, epochs, width = 400, 200, 3, 4
		}
		ds := data.TinyImageNetLike(trainN, testN, 31)
		r := rng.New(32)
		net := models.ResNet18(40, width, 6, r)
		cfg := train.DefaultConfig()
		cfg.Epochs = epochs
		cfg.LRDecayEvery = epochs / 2
		return buildWorkload("resnet-tiny", ds, net, 6, cfg, 320, 33)
	})
}

// NamedWorkload is one row of the workload table: the name -workload flags
// and serve requests use, the line a binary prints before building it, and
// the builder.
type NamedWorkload struct {
	Name     string
	Announce string
	Build    func() *Workload
}

// Workloads returns the workload table: the paper's four model/task pairs,
// in the order help and error text list them.
func Workloads() []NamedWorkload {
	return []NamedWorkload{
		{"lenet", "training LeNet on the MNIST-like task (cached per process)...", LeNetMNIST},
		{"convnet", "training ConvNet on the CIFAR-like task...", ConvNetCIFAR},
		{"resnet", "training ResNet-18 on the CIFAR-like task...", ResNetCIFAR},
		{"tiny", "training ResNet-18 on the TinyImageNet-like task...", ResNetTiny},
	}
}

// Workload persistence: train-once, serve-many. A configured state
// directory backs the registry with serialized state dictionaries
// (package serialize), so daemons and CLIs stop retraining per process.

var (
	stateMu  sync.RWMutex
	stateDir string
)

// SetStateDir points the workload registry at a directory of serialized
// state dictionaries: building workload <name> first tries to restore
// <dir>/<StateFile(name)>, and a freshly trained state is written back
// there. Intended for process startup (the -state CLI flag); "" disables
// persistence. States written by `swim-train -state` interoperate — the
// architecture and shapes must match (a mismatched file is skipped with a
// warning and the workload retrains), and SWIM_FAST runs use separate
// .fast.state files so CI-scale models never leak into full-scale runs.
func SetStateDir(dir string) {
	stateMu.Lock()
	defer stateMu.Unlock()
	stateDir = dir
}

// StateFile returns the state-dict filename for a registry workload name,
// scoped by the process's SWIM_FAST mode (<name>.fast.state vs
// <name>.state): the fast builders train slimmed models at reduced scale,
// and for the equal-shape workloads (LeNet) a silent cross-mode restore
// would feed full-scale experiments an under-trained CI model. Save
// full-scale states (swim-train -state) without SWIM_FAST set.
func StateFile(name string) string {
	if mc.Fast() {
		return name + ".fast.state"
	}
	return name + ".state"
}

func statePath(name string) string {
	stateMu.RLock()
	defer stateMu.RUnlock()
	if stateDir == "" {
		return ""
	}
	return filepath.Join(stateDir, StateFile(name))
}

// restoreState loads the persisted state for name into a clone of net,
// returning nil when no usable state exists. Loading into a clone keeps the
// caller's network pristine on a corrupt or mismatched file, so the
// fall-back training run starts from the untouched initialization.
func restoreState(name string, net *nn.Network) *nn.Network {
	path := statePath(name)
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "experiments: ignoring workload state %s: %v\n", path, err)
		}
		return nil
	}
	defer f.Close()
	clone := net.Clone()
	if err := serialize.Load(f, clone); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: ignoring workload state %s: %v\n", path, err)
		return nil
	}
	return clone
}

// persistState writes net's learned state for name into the state directory
// (atomic rename), best-effort: persistence failures only warn — the
// in-process workload is unaffected.
func persistState(name string, net *nn.Network) {
	path := statePath(name)
	if path == "" {
		return
	}
	if err := SaveState(name, net); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	}
}

// SaveState serializes net as workload name's registry state dict under the
// configured state directory. It errors without one; CLIs that want
// explicit control (swim-train -state) call it directly.
func SaveState(name string, net *nn.Network) error {
	path := statePath(name)
	if path == "" {
		return fmt.Errorf("experiments: no state directory configured (SetStateDir)")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: persist workload state: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), StateFile(name)+".tmp*")
	if err != nil {
		return fmt.Errorf("experiments: persist workload state: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := serialize.Save(tmp, net); err != nil {
		tmp.Close()
		return fmt.Errorf("experiments: persist workload state %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiments: persist workload state %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("experiments: persist workload state %s: %w", path, err)
	}
	return nil
}

// TrialNet returns a fresh deep clone of the trained master network for one
// Monte-Carlo trial. Cloning only reads the master, so concurrent trials may
// call TrialNet freely — the contract the parallel mc engine relies on.
func (w *Workload) TrialNet() *nn.Network { return w.Net.Clone() }

// DeviceFor returns the calibrated device model for the workload's weight
// precision at the given σ.
func (w *Workload) DeviceFor(sigma float64) device.Model {
	return device.Default(w.WeightBits, sigma)
}

// Options returns the pipeline options every experiment on this workload
// shares: the device model at σ, full test-split evaluation, the cached
// sensitivity data (so pipelines skip the calibration pass and share one
// ranking per policy), and the training split for in-situ policies.
// Callers append overrides — options apply in order, so a later WithEval
// narrows the evaluation subset. Read-time nonideality scenarios are
// threaded explicitly (ReadScenario, SweepConfig.Scenario,
// ScenarioResults) — never through process state.
func (w *Workload) Options(sigma float64) []program.Option {
	return []program.Option{
		program.WithDevice(w.DeviceFor(sigma)),
		program.WithEval(w.DS.TestX, w.DS.TestY),
		w.sensitivity(),
		program.WithTraining(w.DS.TrainX, w.DS.TrainY),
	}
}

// sensitivity returns the option that hands a pipeline the workload's one
// program.Sensitivity, built from Hess and Weights on first use; when they
// fail its checks, the option fails with the reason.
func (w *Workload) sensitivity() program.Option {
	w.sensOnce.Do(func() { w.sens, w.sensErr = program.NewSensitivity(w.Hess, w.Weights) })
	if err := w.sensErr; err != nil {
		return func(*program.Pipeline) error { return err }
	}
	return program.WithSensitivity(w.sens)
}

// maxTables bounds the cycle tables a workload keeps.
const maxTables = 32

// tableMemo keeps the cycle tables a workload's scenario sweeps derive,
// keyed by σ and seed, up to maxTables of them; the oldest goes first.
type tableMemo struct {
	mu     sync.Mutex
	tables map[tableKey]func() []float64
	keys   []tableKey // insertion order
}

type tableKey struct{ sigma, seed uint64 } // sigma holds σ's bits

// deriveTable derives the cycle table of a scenario sweep on device dm
// with master seed seed. A test seam: tests count derivations through it.
var deriveTable = func(dm device.Model, seed uint64) []float64 {
	return dm.CycleTable(300, rng.New(seed^0x5ce11a))
}

// cycleTable returns the scenario sweeps' cycle table at σ for seed,
// deriving it once per key while the key is kept: concurrent callers of a
// new key wait for one derivation. The table is shared and read-only.
func (w *Workload) cycleTable(sigma float64, seed uint64) []float64 {
	m := &w.tables
	k := tableKey{math.Float64bits(sigma), seed}
	m.mu.Lock()
	table := m.tables[k]
	if table == nil {
		if m.tables == nil {
			m.tables = make(map[tableKey]func() []float64)
		}
		if len(m.keys) == maxTables {
			delete(m.tables, m.keys[0])
			m.keys = slices.Delete(m.keys, 0, 1)
		}
		dm := w.DeviceFor(sigma)
		table = sync.OnceValue(func() []float64 { return deriveTable(dm, seed) })
		m.tables[k] = table
		m.keys = append(m.keys, k)
	}
	m.mu.Unlock()
	return table()
}
