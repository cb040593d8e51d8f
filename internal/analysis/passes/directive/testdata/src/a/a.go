package a

import "strconv"

// bareAllow suppresses without saying why.
func bareAllow() int {
	n, _ := strconv.Atoi("1") //mpgraph:allow errdrop // want `mpgraph:allow directive without a reason`
	return n
}

// bogusName cites an analyzer that does not exist.
func bogusName() int {
	return 1 //mpgraph:allow bogus -- covered elsewhere // want `unknown analyzer "bogus" in mpgraph:allow directive`
}

// emptyAllow names nothing at all.
func emptyAllow() int {
	return 2 //mpgraph:allow // want `mpgraph:allow directive names no analyzers`
}

// bareWalltime gates a timing loop without a justification.
func bareWalltime() int {
	return 3 //mpgraph:allow-walltime // want `mpgraph:allow-walltime directive without a reason`
}

// bareDetached blesses a goroutine without a justification.
func bareDetached() {
	go func() {}() //mpgraph:detached // want `mpgraph:detached directive without a reason`
}

//mpgraph:recovers // want `mpgraph:recovers is a doc marker, not a directive`
func noSpaceMarker() {
	defer func() { recover() }()
}

// typo uses a verb nobody registered.
func typo() int {
	return 4 //mpgraph:alow errdrop -- typo'd verb // want `unknown directive mpgraph:alow`
}

// spacedList puts a space after the comma, so the directive silences
// neither name.
func spacedList() int {
	n, _ := strconv.Atoi("1") //mpgraph:allow errdrop, maporder -- r // want `malformed analyzer list "errdrop, maporder"`
	return n
}

// afterProse starts the comment with other text, so the allow silences
// nothing.
func afterProse() int {
	n, _ := strconv.Atoi("1") // see below //mpgraph:allow errdrop -- r // want `mpgraph:allow must start its comment`
	return n
}
