package mapping_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/swim"
)

// stateKey renders everything observable about a trial's state bit for bit:
// every parameter, the layer state evaluation reads, the desired values,
// verification marks, write bill and the programmed error.
func stateKey(mp *mapping.Mapped) string {
	var b strings.Builder
	bits := func(v []float64) {
		for _, x := range v {
			fmt.Fprintf(&b, "%x,", math.Float64bits(x))
		}
		b.WriteByte('|')
	}
	for _, p := range mp.Net.Params() {
		bits(p.Data.Data)
	}
	nn.Walk(mp.Net.Trunk, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.BatchNorm2D:
			bits(v.RunMean.Data)
			bits(v.RunVar.Data)
		case *nn.QuantAct:
			bits([]float64{v.Max})
		}
	})
	bits(mp.Desired())
	bits(mp.ProgrammedError())
	fmt.Fprintf(&b, "%v|%x", mp.Verified, math.Float64bits(mp.CyclesUsed))
	return b.String()
}

// Restoring a snapshot undoes write-verify, noisy writes, incremental
// pulses and in-situ training (which also moves digital parameters and
// activation ranges) bit for bit: the restored trial equals an untouched
// twin, measures the same accuracy, and evolves identically under the same
// further writes — under drift alone and with a gain/offset calibration.
func TestSnapshotRestoresExactly(t *testing.T) {
	ds := data.MNISTLike(64, 48, 3)
	for _, calibrated := range []bool{false, true} {
		t.Run(fmt.Sprintf("calibrated=%v", calibrated), func(t *testing.T) {
			twin := func() *mapping.Mapped {
				dm := device.Default(4, 0.5)
				mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
				if err != nil {
					t.Fatal(err)
				}
				mp.SetNonideal(nonideal.Drift{Nu: 0.1, NuStd: 0.02, T0: 1}.NewTrial(dm, rng.New(4)), 86400)
				if calibrated {
					m, err := calib.Parse("gainoffset")
					if err != nil {
						t.Fatal(err)
					}
					mp.SetCalibration(m.NewTrial(rng.New(5)))
				}
				return mp
			}
			a, b := twin(), twin()
			accB := b.Accuracy(ds.TestX, ds.TestY, 16)
			if accA := a.Accuracy(ds.TestX, ds.TestY, 16); accA != accB {
				t.Fatalf("twins measure %v and %v", accA, accB)
			}
			want := stateKey(b)
			var snap mapping.Snapshot
			a.Save(&snap)
			for round := 0; round < 2; round++ {
				r := rng.New(uint64(10 + round))
				for i := 0; i < 300; i++ {
					a.WriteVerifyAt(i*7, r)
				}
				a.NoisyWriteAt(5, 0.03, r)
				a.IncrementAt(9, -0.01, r)
				swim.InSituStep(a, ds.TrainX, ds.TrainY, 0, swim.DefaultInSitu(), r)
				a.Accuracy(ds.TestX, ds.TestY, 16)
				if stateKey(a) == want {
					t.Fatal("the writes changed nothing")
				}
				a.Restore(&snap)
				if got := stateKey(a); got != want {
					t.Fatalf("round %d: restored state differs from the untouched twin", round)
				}
				if acc := a.Accuracy(ds.TestX, ds.TestY, 16); acc != accB {
					t.Fatalf("round %d: restored accuracy %v, twin %v", round, acc, accB)
				}
			}
			// Hidden state (conductances, pending syncs, calibration buffers)
			// shows in how both evolve under the same writes.
			for _, mp := range []*mapping.Mapped{a, b} {
				r := rng.New(99)
				for i := 0; i < 200; i++ {
					mp.WriteVerifyAt(i*11, r)
				}
				mp.IncrementAt(3, 0.02, r)
				swim.InSituStep(mp, ds.TrainX, ds.TrainY, 16, swim.DefaultInSitu(), r)
			}
			if stateKey(a) != stateKey(b) {
				t.Fatal("restored trial and twin diverge under the same writes")
			}
			if accA, accB := a.Accuracy(ds.TestX, ds.TestY, 16), b.Accuracy(ds.TestX, ds.TestY, 16); accA != accB {
				t.Fatalf("after the same writes: accuracy %v vs twin %v", accA, accB)
			}
		})
	}
}

// A snapshot restores only the instance it was taken from.
func TestSnapshotRejectsOtherInstance(t *testing.T) {
	a, b := driftedMapping(t), driftedMapping(t)
	var snap mapping.Snapshot
	a.Save(&snap)
	defer func() {
		if recover() == nil {
			t.Fatal("restoring another instance's snapshot did not panic")
		}
	}()
	b.Restore(&snap)
}
