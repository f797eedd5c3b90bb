"""Byte-identity proof for the transform-layer refactor.

The fingerprints below were captured from the pre-refactor pipeline
(``scripts/dataset_fingerprints.py`` at the commit that introduced
``repro.sql.transform``).  Every labeled dataset — paper workloads and
seeded synthetic — must hash to the same value after the three legacy
AST-mutation sites (corruption injectors, counter-transforms, synthetic
perturbations) were moved onto the shared transform primitives.  A
mismatch here means the refactor changed observable evaluation data.

Some fingerprints have moved since, on purpose:

* ``("syntax_error", "sdss")`` was re-recorded when the alias-ambiguous
  injector stopped stripping qualifiers inside nested SELECTs (the
  stripped reference was not ambiguous there, so the label was wrong);
* ``syntax_error`` and ``query_equiv`` over ``sdss`` and ``sqlshare``
  were re-recorded when the workload builders started to build negative
  numbers as ``Unary('-', positive)``, the form the parser derives.
  Before, 40 SDSS and 5 SQLShare queries kept a builder AST with a
  negative ``Literal`` that differs from the AST of their own text, and
  the corruption injectors and equivalence transforms drew their edit
  sites from that tree.  The query texts did not change: one
  ``syntax_error`` instance per workload and the ``query_equiv`` pairs
  drawn after the first affected query (their generator shares one rng
  across queries) now differ.  The synthetic fingerprints did not move:
  the synthetic generator already normalised its trees after building.
"""

from __future__ import annotations

import pytest

from scripts.dataset_fingerprints import dataset_fingerprint

EXPECTED_FINGERPRINTS = {
    ("syntax_error", "sdss"): "75716a115a0577a390807464cc8db78a42b1e2d44f063bef534118e8e218f1df",
    ("syntax_error", "sqlshare"): "04a0c78beb859d303dd96bf2c85afa5e7f480842c34c7dc3a9e4639dc07e5063",
    ("syntax_error", "join_order"): "04e925acd623a2bdfa947a8d8144c9e1d34f544806a77fe54ed9a4138b62fa3c",
    ("miss_token", "sdss"): "4b7e02f5c9e174158133ad2fe86ed6c6002b27e5033d39fb7110c2bbc3a32901",
    ("miss_token", "sqlshare"): "87e47324c60ad94cf2f6df012d49aece3d79bd54ec7dcdca7cb3bb228a60c536",
    ("miss_token", "join_order"): "ad0d581b1892eb5792d566862a143d1cd08cc79f72ff90a303e036644d4d6349",
    ("query_equiv", "sdss"): "cd87063111da2f5ba395d83b5f9155b9fa61f605f7d4ccfc176495793829b4a6",
    ("query_equiv", "sqlshare"): "546928275a1b60ad8144dd4b0e4ec93bfd0192d2b0294cf4a902dda5ebbd6450",
    ("query_equiv", "join_order"): "b49ecf89bcf0deb546143e42c1c6b3b4fe7780f9d54b026f5d20d8ff1e1871a6",
    ("performance_pred", "sdss"): "7bff4c72b885b8254f5edad1f927276d3f89ad1e8ada95b11cafa6642eeaa05d",
    ("query_exp", "spider"): "e6fa5917396996bd031c3642e2f15802ddd03c2df224c227ffcf9263701c5d0c",
    ("syntax_error", "synthetic:default:n=60"): "916aa6b59357979025b306c41774f9ef437416e88d995448e0aedec408536a1a",
    ("miss_token", "synthetic:default:n=60"): "bbd4ceedb8065461957b44e44e1321d750c1f0d336f88557948435e01e15e8d8",
    ("query_equiv", "synthetic:default:n=60"): "1d9cdf11f1ec41dc0e9d9ea0115b935021bc6cb230a4f8b0adc160a68f1ae1c6",
    ("performance_pred", "synthetic:default:n=60"): "07b6735f8dc1b86a049670f7e1a7e17e3a7f10a1ad074a3d56bb3dd2a4e23a36",
    ("query_exp", "synthetic:default:n=60"): "31af197d58612f7377352dc18285c46d37310ff3e71de21f9df108acec4695f6",
    ("syntax_error", "synthetic:joins:n=40"): "cebe62c161108bb43f552512a495066b4915faa1271e56aa1ee461acc8f74c93",
    ("miss_token", "synthetic:joins:n=40"): "433f74db57fa7b7db454105ef6c79a058dccc68f4c062c369f5816ccd8198d6f",
    ("query_equiv", "synthetic:joins:n=40"): "e51c30c545645c0a3d11b789f551f136e07b930a72cef14ac154794c3ba44e63",
    ("performance_pred", "synthetic:joins:n=40"): "836d5425488c9ca1fffc9f8cb75c761e53b148bb28315e81d89f38914bfdeac3",
    ("query_exp", "synthetic:joins:n=40"): "83a95e19f8a82eca352269cb2bda281719d28854335eb8e878069fa0d4b879f1",
    ("syntax_error", "synthetic:predicates:n=40"): "3831f9982e7323f7c8c1ef7d17c91961c53cca75c4fce4952724ce9d07d8a9d7",
    ("miss_token", "synthetic:predicates:n=40"): "3e1a54dbbc1a8d2af0ea0fe0b37885ef4a509df570e1cf88c487defb965d0aa6",
    ("query_equiv", "synthetic:predicates:n=40"): "38fddf5a27c75768614eba3374e08eecfdbd58d6062a37f63eff9dc472585c65",
    ("performance_pred", "synthetic:predicates:n=40"): "b4da31ddb2f2e9b7e5c49704699fefef9db7fb6b173831215212569f4401b1be",
    ("query_exp", "synthetic:predicates:n=40"): "9f914ff13721599c86000ff3f01daa37c65e22da0c4acedb92979c8ce0c00339",
}


@pytest.mark.parametrize(
    "task,workload_name",
    sorted(EXPECTED_FINGERPRINTS),
    ids=lambda value: value.replace(":", "_") if isinstance(value, str) else value,
)
def test_dataset_byte_identical(task: str, workload_name: str) -> None:
    assert (
        dataset_fingerprint(task, workload_name)
        == EXPECTED_FINGERPRINTS[(task, workload_name)]
    )
