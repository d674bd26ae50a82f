package geocol

import "chaos/internal/machine"

// GhostPatternMismatch exposes the reference cross-check of
// ghost_ref_test.go to the external fuzz tests: it describes how ge's
// pattern differs from the sort-and-search construction over g, or
// returns "" when the two are identical.
func GhostPatternMismatch(c *machine.Ctx, g *Graph, ge *GhostExchange) string {
	return refGhostPattern(c.Rank(), c.Procs(), g).mismatch(patternOf(ge))
}
