package treematch

// Hooks for the external tests of this directory (package treematch_test),
// which can import internal/workloads without an import cycle.

// RandSparse is randSparse for the external tests.
var RandSparse = randSparse

// SetRefineBudget replaces refineBudget and returns a function restoring it.
func SetRefineBudget(b int) (restore func()) {
	old := refineBudget
	refineBudget = b
	return func() { refineBudget = old }
}
