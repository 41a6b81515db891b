package cminus

// ParseSeeds exposes the FuzzParse seed inputs to the external test
// package, which also pins the corpus sources and cannot import corpus
// from inside package cminus.
var ParseSeeds = parseSeeds
