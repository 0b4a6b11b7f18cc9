package diag

// AppendCandidateComponents exposes Module DA's candidate set to the
// reference tests.
var AppendCandidateComponents = appendCandidateComponents
