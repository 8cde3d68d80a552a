package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"swim/internal/calib"
	"swim/internal/device"
	"swim/internal/models"
	"swim/internal/nonideal"
	"swim/internal/rng"
)

// putState hashes the raw IEEE-754 bits of everything a trial's device
// simulation leaves behind: the mapped weights, the tracked per-device
// conductances, the verification marks and the write-cycle bill.
func putState(h hash.Hash, mp *Mapped) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range mp.loc.params {
		for _, v := range p.Data.Data {
			put(v)
		}
	}
	for _, v := range mp.cond {
		put(v)
	}
	for _, v := range mp.Verified {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	put(mp.CyclesUsed)
}

// TestDeviceSimulationBitsPinned pins, bit for bit, what unverified
// programming, write-verify, in-situ writes, the drifted read-out and a
// calibration leave in a LeNet trial, and one write-verify cycle table. The
// statistical device tests allow a tolerance, so a shortcut that skips or
// reorders a random draw can pass them; it fails here. Every Monte-Carlo
// result downstream inherits these bits. M=4/K=4 programs one device per
// weight; M=8/K=3 three, the top one holding a partial slice. The second
// drift stack draws ν around 0.6, so its devices take math.Pow's branches
// above and below ν = ½.
func TestDeviceSimulationBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's; other targets fuse multiply-adds (ROADMAP item G)")
	}
	stack := func(s string) []nonideal.Nonideality {
		t.Helper()
		models, err := nonideal.ParseStack(s)
		if err != nil {
			t.Fatal(err)
		}
		return models
	}
	gainoffset, err := calib.Parse("gainoffset")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m, k int
		want string
	}{
		{"M4K4", 4, 4, "a2e9e1ffe4d92edf8377e22ebfcb7d6e2320d1bfb6a990545146598eddc13483"},
		{"M8K3", 8, 3, "7775e0508605fa13d195fc9f9cb7a91f38912520d3a40a673987f4053e360c70"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dm := device.Default(tc.m, 0.5)
			dm.DeviceBits = tc.k
			h := sha256.New()
			table := dm.CycleTable(50, rng.New(2))
			for _, v := range table {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
			mp := mustNew(t, models.LeNet(10, 4, rng.New(1)), dm, table, rng.New(3))
			putState(h, mp)

			r := rng.New(4)
			order := r.Perm(mp.total)
			mp.WriteVerifyPrefix(order, mp.total/10, r)
			putState(h, mp)
			for j, i := range order[:8] {
				mp.NoisyWriteAt(i, float64(j-4)*0.01, r)
				mp.IncrementAt(order[len(order)-1-j], float64(j-4)*0.002, r)
			}
			putState(h, mp)

			mp.SetNonideal(nonideal.NewTrials(stack("drift:nu=0.1+d2d"), dm, rng.New(5)), 86400)
			putState(h, mp)
			mp.SetNonideal(nonideal.NewTrials(stack("drift:nu=0.6,nustd=0.2"), dm, rng.New(6)), 86400)
			putState(h, mp)
			mp.SetCalibration(gainoffset.NewTrial(rng.New(7)))
			putState(h, mp)

			for j, i := range order[len(order)-20:] {
				mp.WriteVerifyAt(i, r)
				mp.NoisyWriteAt(order[j], 0.02, r)
				mp.IncrementAt(order[100+j], -0.003, r)
			}
			mp.SyncRead()
			putState(h, mp)

			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("device simulation digest = %s, want %s", got, tc.want)
			}
		})
	}
}
