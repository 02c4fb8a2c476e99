package sbserver

// OracleLists are the lists the list oracle's steps mutate. A server
// the steps run against serves both, created in this order.
var OracleLists = oracleLists

// OracleSteps returns the list oracle's step generator for seed: each
// call applies the next step of TestPrefixSetMatchesChunkReplay's
// sequence for that seed to s.
func OracleSteps(seed int64) func(s *Server) error {
	return newListOracle(seed).step
}
