package symptoms

// Patterns and Substitute lend the long-way helpers of
// evaluate_reference_test.go to the external tests.
var (
	Patterns   = refPatterns
	Substitute = refSubstitute
)
