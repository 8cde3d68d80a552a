package serve

import "testing"

func TestFairShareSplitsEvenly(t *testing.T) {
	fs := newFairShare(8, nil)
	a := fs.acquire(nil)
	if limit, _ := a.Limit(); limit != 8 {
		t.Fatalf("lone job limit = %d, want 8", limit)
	}
	b := fs.acquire(nil)
	la, _ := a.Limit()
	lb, _ := b.Limit()
	if la != 4 || lb != 4 {
		t.Fatalf("two-job limits = %d, %d, want 4, 4", la, lb)
	}
	c := fs.acquire(nil)
	if lc, _ := c.Limit(); lc != 2 { // 8 / 3 = 2
		t.Fatalf("three-job limit = %d, want 2", lc)
	}
	c.release()
	b.release()
	if la, _ = a.Limit(); la != 8 {
		t.Fatalf("limit after releases = %d, want 8", la)
	}
	a.release()
}

func TestFairShareNeverBelowOne(t *testing.T) {
	fs := newFairShare(1, nil)
	a := fs.acquire(nil)
	b := fs.acquire(nil)
	defer a.release()
	defer b.release()
	if la, _ := a.Limit(); la != 1 {
		t.Fatalf("oversubscribed limit = %d, want 1", la)
	}
}

func TestFairShareChangeNotification(t *testing.T) {
	fs := newFairShare(4, nil)
	a := fs.acquire(nil)
	_, changed := a.Limit()
	select {
	case <-changed:
		t.Fatal("change channel closed with no change")
	default:
	}
	b := fs.acquire(nil)
	select {
	case <-changed:
	default:
		t.Fatal("acquire did not signal the change channel")
	}
	b.release()
	a.release()
}

func TestFairShareReleaseIdempotent(t *testing.T) {
	fs := newFairShare(4, nil)
	a := fs.acquire(nil)
	b := fs.acquire(nil)
	b.release()
	b.release() // double release must not free a second slot
	if la, _ := a.Limit(); la != 4 {
		t.Fatalf("limit = %d, want 4", la)
	}
	a.release()
}
