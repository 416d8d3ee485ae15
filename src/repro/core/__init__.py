"""The paper's primary contribution: the generic transformation toolkit.

Certificates, behaviour automata, vector certification, the five-module
process structure and the transformation blueprint — everything in this
package is protocol-independent; the consensus instantiation lives in
:mod:`repro.consensus`.
"""
