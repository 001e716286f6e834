//go:build race

package alloctest

// Slack is the race build's Slack (slack.go): sync.Pool drops a quarter
// of what is put back, and exact readings run up to 0.42 over.
const Slack = 0.5
