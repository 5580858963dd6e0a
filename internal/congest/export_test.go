package congest

// Test-only exports for the external golden-fingerprint test
// (golden_test.go), which lives in package congest_test so it can also
// drive the distmincut entry points.
var (
	ChatterProgram      = chatterProgram
	DeterminismFamilies = determinismFamilies
)

// ShardMinNodes exports the automatic delivery-sharding threshold for
// the sharding-rule test (shardrule_test.go).
const ShardMinNodes = shardMinNodes
