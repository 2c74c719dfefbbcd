package core

// RefIndex exposes the reference index formula to the external tests.
var RefIndex = refIndex
