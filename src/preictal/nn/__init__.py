"""The per-sensor 1-D CNN: ops, model, focal loss, Adam and the training loop."""
