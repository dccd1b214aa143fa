// Package user exercises maskwidth's guard recognition against the
// bitapi seed: two unguarded call sites are inventory, every recognized
// guard shape is clean.
package user

import (
	"fmt"

	"fixture/maskfix/bitapi"
)

// Unguarded feeds n straight into the one-word API and becomes
// one-word-limited itself.
func Unguarded(set []int, n int) uint64 {
	return bitapi.Mask(set, n) // want "feeds an unguarded n into bitapi.Mask"
}

// Transitive inherits the limit through Unguarded — the taint
// propagates up the call graph with the origin named.
func Transitive(set []int, n int) uint64 {
	return Unguarded(set, n) + 1 // want "via user.Unguarded"
}

// ThenGuard is the if-then form: the call is dominated by n ≤ 64.
func ThenGuard(set []int, n int) uint64 {
	if n <= 64 {
		return bitapi.Mask(set, n)
	}
	return 0
}

// BailGuard is the early-bailout form: n > 64 leaves the function
// before the call.
func BailGuard(set []int, n int) uint64 {
	if n > 64 {
		return 0
	}
	return bitapi.Mask(set, n)
}

// fits is the guard-predicate form (a width-guard helper): its bool
// result implies the bound.
func fits(n int) bool { return n <= 64 }

// PredGuard calls through the predicate.
func PredGuard(set []int, n int) uint64 {
	if fits(n) {
		return bitapi.Mask(set, n)
	}
	return 0
}

// capped is the caps form: an error result that is non-nil whenever n
// exceeds a sub-word cap.
func capped(n int) (int, error) {
	if n > 32 {
		return 0, fmt.Errorf("user: n=%d exceeds the fixture cap of 32", n)
	}
	return n, nil
}

// SplitGuard is the two-statement caps form: assign, check, use.
func SplitGuard(set []int, n int) (uint64, error) {
	m, err := capped(n)
	if err != nil {
		return 0, err
	}
	return bitapi.Mask(set, m), nil
}

// check panics beyond one word — the fixture checkMaskWidth.
func check(n int) {
	if n > 64 {
		panic(fmt.Sprintf("user: n=%d beyond one word", n))
	}
}

// CheckedGuard is the bare width-check statement form.
func CheckedGuard(set []int, n int) uint64 {
	check(n)
	return bitapi.Mask(set, n)
}
