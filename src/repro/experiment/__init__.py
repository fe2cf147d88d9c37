"""Silicon-experiment simulation: Veqtor4 lots, classification, Venn.

Monte-Carlo stand-in for the paper's industrial experiment: generate a
lot of Veqtor4 test chips with fab-sampled defects, run the
screen-then-stress protocol, and account the interesting devices in the
Figure 11 Venn regions.
"""
