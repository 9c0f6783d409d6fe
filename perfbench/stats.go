package main

import (
	"math/rand"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, or 0 when xs is empty. It sorts
// xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides a by b, reporting 0 when b is 0: a layer with no work, or
// a phase with no ops.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deck deals indices 0..n-1 in seeded shuffles of a fixed multiset: every
// block of len(weights)-weighted cards holds each index exactly weights[i]
// times. Workloads draw their per-op choices from decks rather than from
// independent coin flips so that every seed runs the same mix of
// operations, only in a different order; the seed then moves the order of
// work, not its amount.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for i, w := range weights {
		for ; w > 0; w-- {
			d.cards = append(d.cards, i)
		}
	}
	d.next = len(d.cards)
	return d
}

// draw returns the next card, reshuffling when the block is used up.
func (d *deck) draw() int {
	if d.next == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.rng.Intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}
