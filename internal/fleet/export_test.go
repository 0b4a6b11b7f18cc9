package fleet

// EpochOf exposes the learning-epoch grid to the external fleet tests.
var EpochOf = epochOf
