//go:build race

package exp

// raceEnabled reports whether the test binary was built with the race
// detector. The overhead contracts (TestObsOverhead,
// TestExplainOverhead, TestFaultOverhead) compare two timings a few
// percent apart; the detector instruments every atomic the
// instrumentation is made of, so they hold only without it.
const raceEnabled = true
