package order

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cube"
)

// OptimalPeak exhaustively searches all orderings of s and returns the
// minimum achievable DP-fill peak together with a permutation attaining
// it. Factorial in n; it exists so tests and ablations can measure how
// close the heuristic orderings (I-Ordering, X-Stat, ISA) come to the
// joint ordering+filling optimum on small instances — a question the
// paper leaves open (it proves optimality per ordering, not across
// orderings). Instances with n > 9 are refused.
func OptimalPeak(s *cube.Set) (int, []int, error) {
	n := s.Len()
	if n > 9 {
		return 0, nil, fmt.Errorf("order: exhaustive search refused for n=%d > 9", n)
	}
	if n <= 1 {
		return 0, Identity(n), nil
	}
	p := cube.Pack(s)
	perm := Identity(n)
	best := -1
	var bestPerm []int
	// Swap recursion over permutations: position k takes each remaining
	// cube in turn. The first position could be fixed, since toggles
	// are symmetric under reversal, but keep it simple and enumerate
	// everything: n <= 9 means at most 362880 evaluations, each one
	// sweep of the packed snapshot.
	var rec func(k int) error
	rec = func(k int) error {
		if k == n {
			peak, err := core.BottleneckOrder(p, perm)
			if err != nil {
				return err
			}
			if best == -1 || peak < best {
				best = peak
				bestPerm = append(bestPerm[:0], perm...)
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := rec(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, nil, err
	}
	return best, bestPerm, nil
}
