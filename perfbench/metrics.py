"""Names, units and better directions of every metric the benchmark prints.

``BENCHMARK.json`` at the root of the repository lists the same metrics;
``tests/test_perfbench.py`` keeps the two in step.
"""

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "unit_ms_p50": ("ms", "lower"),
    "items_per_s": ("1/s", "higher"),
}

PER_LAYER = {
    # train_mixed, per training step
    "autodiff.ops_per_step": ("count", "lower"),
    "autodiff.tape_nodes_per_step": ("count", "lower"),
    "autodiff.matmul_nodes_per_step": ("count", "lower"),
    "autodiff.softmax_nodes_per_step": ("count", "lower"),
    "autodiff.log_nodes_per_step": ("count", "lower"),
    "autodiff.backward_ms_per_step": ("ms", "lower"),
    "model.forwards_per_step": ("count", "lower"),
    "model.text_encodes_per_step": ("count", "lower"),
    "model.media_encodes_per_step": ("count", "lower"),
    "model.vision_encodes_per_step": ("count", "lower"),
    "model.unimodal_ms_per_step": ("ms", "lower"),
    "model.media_ms_per_step": ("ms", "lower"),
    "model.fusion_ms_per_step": ("ms", "lower"),
    "model.loss_ms_per_step": ("ms", "lower"),
    "training.loader_ms_per_step": ("ms", "lower"),
    "docs.sample_window_ms_per_step": ("ms", "lower"),
    "training.samples_kept_per_step": ("count", "higher"),
    "training.optimizer_ms_per_step": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    # fewshot_k8, per episode
    "model.forwards_per_episode": ("count", "lower"),
    "model.vision_encodes_per_episode": ("count", "lower"),
    "model.unimodal_ms_per_episode": ("ms", "lower"),
    "model.media_ms_per_episode": ("ms", "lower"),
    "model.fusion_ms_per_episode": ("ms", "lower"),
    "autodiff.ops_per_episode": ("count", "lower"),
    "synthetic.retrieval_ms_per_episode": ("ms", "lower"),
    # curate (read_shard also in train_mixed set-up)
    "docs.read_shard_ms_per_doc": ("ms", "lower"),
    "docs.write_shard_ms_per_doc": ("ms", "lower"),
    "interleave.match_ms_per_doc": ("ms", "lower"),
    "interleave.filter_and_replace_ms_per_doc": ("ms", "lower"),
    "interlink.kts_segment_ms_per_video": ("ms", "lower"),
    "interlink.annotate_video_ms_per_video": ("ms", "lower"),
    "select.kmeans_ms": ("ms", "lower"),
    "select.kmeans_iters": ("count", "lower"),
    "select.sample_ms": ("ms", "lower"),
    "prep_docs_per_s": ("1/s", "higher"),
    "video_frames_per_s": ("1/s", "higher"),
    "select_points_per_s": ("1/s", "higher"),
    # every workload
    "trace.overhead_pct": ("%", "lower"),
}
