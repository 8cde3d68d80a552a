package swim

import "math"

// rankDescending returns the permutation of [0, len(primary)) that orders
// primary descending, then secondary descending (nil: no second key), then
// index ascending, with −0 equal to +0: the order a stable sort by that
// comparison gives. It is built from sortable 64-bit keys by stable
// least-significant-digit radix passes, one byte per pass, skipping every
// byte position at which all keys agree; a trained network's weight
// magnitudes share their top bits and most sensitivities are exactly 0, so
// few passes run. The order is undefined for NaN keys.
func rankDescending(primary, secondary []float64) []int {
	n := len(primary)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if n < 2 {
		return idx
	}
	spare := make([]int, n)
	keys, spareKeys := make([]uint64, n), make([]uint64, n)
	// The second key first: the primary passes are stable, so they keep
	// its order among equal primaries, and it keeps index order in turn.
	for _, vals := range [][]float64{secondary, primary} {
		if vals == nil {
			continue
		}
		for j, i := range idx {
			keys[j] = descKey(vals[i])
		}
		idx, spare, keys, spareKeys = radixSort(idx, spare, keys, spareKeys)
	}
	return idx
}

// descKey maps v to a key whose ascending order is v's descending order.
func descKey(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 ranks with +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		b = ^b // negatives: larger magnitude, smaller key
	} else {
		b |= 1 << 63
	}
	return ^b
}

// radixSort stably sorts idx by keys ascending (keys[j] belongs to idx[j]),
// using spare and spareKeys as the scatter buffers, and returns the sorted
// pair followed by the buffers left spare.
func radixSort(idx, spare []int, keys, spareKeys []uint64) ([]int, []int, []uint64, []uint64) {
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	n := len(keys)
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(keys[0]>>shift)] == n {
			continue // every key has this byte
		}
		pos := 0
		for b, m := range c {
			c[b], pos = pos, pos+m
		}
		for j, k := range keys {
			b := byte(k >> shift)
			spareKeys[c[b]], spare[c[b]] = k, idx[j]
			c[b]++
		}
		idx, spare, keys, spareKeys = spare, idx, spareKeys, keys
	}
	return idx, spare, keys, spareKeys
}
