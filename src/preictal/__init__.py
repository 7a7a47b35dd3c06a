"""Progressive seizure prediction at desk scale.

Synthetic EEG/ECG recordings are cut into windows labeled by time-to-onset
(four 15-minute pre-seizure bins plus interictal), classified per sensor by a
small from-scratch 1-D CNN trained with focal loss, fused by a logistic-
regression combiner over both sensors' quantized probabilities, scored with
confusion/sensitivity/specificity/trend artifacts under stratified k-fold
cross-validation, and replayed through a deterministic discrete-event
simulation of the closed-loop body-area network.
"""
