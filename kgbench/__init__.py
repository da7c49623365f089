"""KG-build benchmark over the fcrepo3_rdf_extractor_ray engine."""
