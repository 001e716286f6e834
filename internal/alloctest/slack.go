//go:build !race

package alloctest

// Slack is what an exact reading may carry over its whole objects: a slab
// refill, an undo chunk, a grown stack or a pooled object remade after a
// collection emptied the pools, on a few of the runs. Every exact ceiling
// is its whole objects plus Slack. Under -race, where sync.Pool drops a
// quarter of what is put back, readings run up to 0.42 over and Slack is
// 0.5 (slack_race.go).
const Slack = 0.25
