//go:build race

package sim_test

// raceDetectorEnabled mirrors whether this test binary was built with
// -race; race_off_test.go provides the false arm.
const raceDetectorEnabled = true
