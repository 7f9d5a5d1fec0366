package core

// Fixtures for the external core_test package, which scores DynState
// snapshots through internal/plan (a package core itself cannot import).
var (
	BaseConfig    = testConfig
	BaseInstance  = testInstance
	ParityConfigs = parityConfigs
	ScoreRef      = scoreRef
)
