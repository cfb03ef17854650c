package main

import (
	"time"

	"shardmanager/internal/experiments"
	"shardmanager/internal/orchestrator"
	"shardmanager/internal/shard"
)

// observe attaches the traced run's recorder to the control plane's
// observation hooks. It is the only place the benchmark touches those hook
// APIs, so replacing them means changing this function alone. Every hook is
// RNG-free and schedules nothing, so observing does not change the run.
func observe(d *experiments.Deployment, rec *layerRec) {
	d.Orch.AddHooks(orchestrator.Hooks{
		MigrationStarted:  func(s shard.ID, _, _ shard.ServerID, _ bool) { rec.migrationStarted(s) },
		MigrationFinished: func(s shard.ID, _ bool) { rec.migrationFinished(s) },
		MapPublished:      func(version int64, _ int) { rec.published(version) },
	})
	d.Disc.AddObserver(func(app shard.AppID, version int64, lag time.Duration, status string) {
		if app == d.App && status == "delivered" {
			rec.delivered(version, lag)
		}
	})
	d.Store.AddWriteObserver(func(string, string) { rec.coordWrite() })
}
