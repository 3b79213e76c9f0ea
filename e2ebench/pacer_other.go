//go:build !linux

package main

import "time"

// pacer falls back to Go's timer outside Linux.
type pacer struct{}

func newPacer() (*pacer, error)        { return &pacer{}, nil }
func (p *pacer) sleep(d time.Duration) { time.Sleep(d) }
func (p *pacer) close() error          { return nil }
