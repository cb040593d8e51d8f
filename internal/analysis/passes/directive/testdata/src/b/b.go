package b

import "strconv"

// reasoned is the contract shape: names plus a reason.
func reasoned() int {
	n, _ := strconv.Atoi("1") //mpgraph:allow errdrop -- demonstrates the documented-suppression form
	return n
}

// multiName silences two analyzers with one explained directive.
func multiName() int {
	n, _ := strconv.Atoi("2") //mpgraph:allow errdrop,maporder -- one reason can cover several checks
	return n
}

// walltimeReason documents why the timing gate is off here.
//
//mpgraph:allow-walltime -- measures its own calibration loop
func walltimeReason() int {
	return 1
}

// detachedReason documents the goroutine's lifetime story.
func detachedReason(ch chan int) {
	go func() { ch <- 1 }() //mpgraph:detached -- test stub; receiver drains before exit
}

//mpgraph:noalloc
func marker(dst, src []float64) {
	copy(dst, src)
}

// mpgraph:recovers
func spaceMarker() {
	defer func() { recover() }()
}

// prose that merely talks about mpgraph:allow directives is not itself a
// directive, because the verb is not at the start of the comment.
func prose() int {
	return 2
}
