//go:build !race

package flat

const raceEnabled = false
