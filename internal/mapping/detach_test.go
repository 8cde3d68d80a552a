package mapping_test

import (
	"testing"

	"swim/internal/calib"
	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nonideal"
	"swim/internal/rng"
)

// driftedMapping programs a fresh LeNet under a day of strong drift. The
// same seeds give the same devices, so two calls return twins.
func driftedMapping(t *testing.T) *mapping.Mapped {
	t.Helper()
	dm := device.Default(4, 0.5)
	mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	mp.SetNonideal(nonideal.Drift{Nu: 0.1, NuStd: 0.02, T0: 1}.NewTrial(dm, rng.New(4)), 86400)
	return mp
}

func flatWeights(mp *mapping.Mapped) []float64 {
	var out []float64
	for _, p := range mp.Net.MappedParams() {
		out = append(out, p.Data.Data...)
	}
	return out
}

// Detaching calibration while a nonideality stays installed puts the raw
// read-out back: every weight, reprogrammed or not, must equal a twin that
// was never calibrated. Calibrating again then fits from that read-out, so
// both end with the same corrected weights.
func TestDetachCalibrationRestoresRawReadout(t *testing.T) {
	m, err := calib.Parse("gainoffset")
	if err != nil {
		t.Fatal(err)
	}
	mp, twin := driftedMapping(t), driftedMapping(t)
	mp.SetCalibration(m.NewTrial(rng.New(5)))
	calibrated := flatWeights(mp)
	r, rt := rng.New(6), rng.New(6)
	for i := 0; i < 50; i++ {
		mp.WriteVerifyAt(1000+i, r)
		twin.WriteVerifyAt(1000+i, rt)
	}
	mp.SetCalibration(nil)
	mp.SyncRead()
	twin.SyncRead()

	raw, got := flatWeights(twin), flatWeights(mp)
	corrected := 0
	for i := range raw {
		if calibrated[i] != raw[i] {
			corrected++
		}
		if got[i] != raw[i] {
			t.Fatalf("weight %d after detach: %v, raw read-out %v", i, got[i], raw[i])
		}
	}
	if corrected == 0 {
		t.Fatal("calibration corrected no weight — test is vacuous")
	}

	mp.SetCalibration(m.NewTrial(rng.New(5)))
	twin.SetCalibration(m.NewTrial(rng.New(5)))
	want, got := flatWeights(twin), flatWeights(mp)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weight %d recalibrated after detach: %v, want %v", i, got[i], want[i])
		}
	}
}
