// Package shared holds state in a sub-package the fixture run loads.
package shared

type State struct{ IDs []int }
