package mpt

// AddEncoded exposes addEncoded, the global sum's in-place add of an
// encoded peer, to the external fuzz target FuzzCombineSum.
func AddEncoded[T word](vec []T, peer []byte) error { return addEncoded(vec, peer) }
