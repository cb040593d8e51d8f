//go:build !race

package sim_test

// raceDetectorEnabled mirrors whether this test binary was built with
// -race; race_on_test.go provides the true arm.
const raceDetectorEnabled = false
