package tensor

import "testing"

func TestArenaAllocCarvesAndResets(t *testing.T) {
	a := NewArena()
	x := a.Alloc(2, 3)
	if x.Size() != 6 || len(x.Data) != 6 {
		t.Fatalf("alloc shape wrong: %v / %d", x.Shape, len(x.Data))
	}
	x.Fill(7)
	y := a.Alloc(4)
	y.Fill(1)
	if x.Data[0] != 7 {
		t.Fatal("second alloc overlapped the first before Reset")
	}

	a.Reset()
	x2 := a.Alloc(2, 3)
	if &x2.Data[0] != &x.Data[0] {
		t.Fatal("post-Reset alloc must re-carve the same memory")
	}
	if x2 != x {
		t.Fatal("post-Reset alloc must reuse the same tensor header")
	}
}

func TestArenaZeroSteadyStateAllocs(t *testing.T) {
	a := NewArena()
	pass := func() {
		a.Reset()
		t1 := a.Alloc(8, 8)
		t2 := a.Alloc(3, 5, 7)
		f := a.AllocFloats(100)
		t1.Data[0], t2.Data[0], f[0] = 1, 2, 3
	}
	pass() // warm-up grows chunks and headers
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state arena pass allocates %v times, want 0", allocs)
	}
}

func TestArenaGrowsBeyondChunk(t *testing.T) {
	a := NewArena()
	big := a.AllocFloats(defaultChunk + 1)
	if len(big) != defaultChunk+1 {
		t.Fatalf("oversized alloc length %d", len(big))
	}
	small := a.AllocFloats(4)
	small[0] = 1
	big[len(big)-1] = 2
	if a.Footprint() < defaultChunk+1 {
		t.Fatalf("footprint %d too small", a.Footprint())
	}
}

func TestArenaAllocRejectsBadShape(t *testing.T) {
	a := NewArena()
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive dim must panic")
		}
	}()
	a.Alloc(2, 0)
}

// TestArenaKeptOutlivesReset: kept slices survive the scratch Reset that
// every plan pass makes, ResetKept lends their memory to the next holder
// and moves the epoch on, and a steady kept-plus-scratch cycle allocates
// nothing.
func TestArenaKeptOutlivesReset(t *testing.T) {
	a := NewArena()
	e0 := a.ResetKept()
	k := a.Keep(defaultChunk + 3)
	k[0], k[len(k)-1] = 5, 6
	for i := 0; i < 3; i++ {
		a.Reset()
		for j, f := 0, a.AllocFloats(defaultChunk); j < len(f); j++ {
			f[j] = -1
		}
	}
	if k[0] != 5 || k[len(k)-1] != 6 {
		t.Fatal("scratch passes overwrote a kept slice")
	}
	if a.KeptEpoch() != e0 {
		t.Fatalf("epoch moved from %d to %d without ResetKept", e0, a.KeptEpoch())
	}
	e1 := a.ResetKept()
	if e1 == e0 || a.KeptEpoch() != e1 {
		t.Fatalf("ResetKept returned epoch %d after %d (current %d)", e1, e0, a.KeptEpoch())
	}
	if k2 := a.Keep(defaultChunk + 3); &k2[0] != &k[0] {
		t.Fatal("post-ResetKept Keep must re-carve the same memory")
	}
	cycle := func() {
		a.ResetKept()
		a.Keep(defaultChunk + 3)[0] = 1
		a.Reset()
		a.AllocFloats(defaultChunk)[0] = 2
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("steady kept/scratch cycle allocates %v times, want 0", allocs)
	}
}
