//go:build !race

package capi_test

const raceEnabled = false
